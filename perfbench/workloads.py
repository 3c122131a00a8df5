"""The four workloads, the layer probe, and the known-answer checks.

Each workload function takes a :class:`harness.Run`, measures it, and fills
in its latencies, failures, designs and (traced) spans.  Layers are timed
from outside: every call the benchmark makes into a layer's public function
is wrapped in a :func:`repro.trace.trace_span` named after the layer, so the
program's own spans (``solve``, ``ilp``, ``allocate``, ``cache``,
``disk_write``, ``verify_*`` ...) nest inside them when a collector is
active, and cost one attribute read when it is not.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time

from harness import (
    BENCH_DIR,
    ROOT,
    Run,
    calibration_seconds,
    measure_setup,
    median,
    pin_to_one_cpu,
    process_peak_rss_mb,
    run_rounds,
    speed_factor,
)
from repro.algorithms import (
    ALGORITHM_NAMES,
    TEMPORAL_ALGORITHM_NAMES,
    algorithm_info,
    build_algorithm,
)
from repro.api import CompileTarget
from repro.core.compiler import compile_target
from repro.core.scheduler import realize_line_buffers
from repro.dse.sweep import sweep_memory_configurations
from repro.estimate.report import accelerator_report
from repro.rtl.generator import generate_verilog
from repro.rtl.lint import lint_verilog
from repro.rtl.sim import elaborate_design, measure_performance, simulate_design
from repro.service import CompileEngine, ServiceClient, start_server
from repro.service.http import ServiceError
from repro.service.verify import VerifyEngine, VerifyRequest
from repro.service.wire import target_from_wire, target_to_wire
from repro.sim.batch import golden_frames, replay_frames
from repro.sim.cycle import check_schedule_legality
from repro.trace import collect_spans, spans_from_payload, trace_span

EXPECTED_PATH = BENCH_DIR / "expected.json"
RESOLUTIONS = ((480, 320), (1920, 1080))
VARIANTS = ("ours", "ours+lc")
CHECKS = ("golden", "cycle", "rtl", "perf")
#: Input draws per round for each check.  golden and rtl replay the input
#: frames, so each design gets two seeds for them; cycle and perf depend on
#: the schedule alone.  This also puts the median op inside the replaying
#: checks instead of on the edge between cheap and expensive ones.
DRAWS = {"golden": 2, "cycle": 1, "rtl": 2, "perf": 1}
FRAMES = 2
#: Every fifth serve-http request of a client misses the cache at an unseen
#: resolution (from a seeded starting point).
MISS_EVERY = 5
#: Closed-loop HTTP clients (one per core of the reference 2-core machine).
CLIENTS = 2
PROBE_ALGORITHM = "unsharp-m"
PROBE_REPEATS = 3


# ---------------------------------------------------------------------------
# Design sets and known answers
# ---------------------------------------------------------------------------
def catalog_names(smoke: bool = False) -> tuple[str, ...]:
    names = ALGORITHM_NAMES + TEMPORAL_ALGORITHM_NAMES
    return ("unsharp-m", "frame-diff-m") if smoke else names


def multi_consumer_names(smoke: bool = False) -> tuple[str, ...]:
    """The Fig. 10 pair (canny-m, denoise-m) first, then the other multi-consumer algorithms."""
    if smoke:
        return ("unsharp-m", "xcorr-m")
    others = [
        name
        for name in catalog_names()
        if algorithm_info(name).expected_multi_consumer_stages > 0
        and name not in ("canny-m", "denoise-m")
    ]
    return ("canny-m", "denoise-m", *others)


def compile_designs(smoke: bool = False) -> list[tuple[str, int, int, str]]:
    resolutions = RESOLUTIONS[:1] if smoke else RESOLUTIONS
    return [
        (name, width, height, variant)
        for name in catalog_names(smoke)
        for width, height in resolutions
        for variant in VARIANTS
    ]


def design_key(name: str, width: int, height: int, variant: str) -> str:
    return f"{name}@{width}x{height}:{variant}"


def make_target(dag, width: int, height: int, variant: str) -> CompileTarget:
    target = CompileTarget(dag, image_width=width, image_height=height)
    return target.with_options(coalescing=True) if variant == "ours+lc" else target


def design_record(schedule, report, source: str) -> dict:
    """The known-answer fields of one design."""
    return {
        "objective": float(schedule.solver_stats["objective"]),
        "sram_kb": report.sram_kbytes,
        "sram_blocks": report.sram_blocks,
        "verilog_sha256": hashlib.sha256(source.encode("utf-8")).hexdigest(),
    }


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def record_problems(expected: dict | None, actual: dict) -> list[str]:
    if expected is None:
        return ["no expected answer"]
    return [
        f"{field} {actual[field]!r} != expected {expected[field]!r}"
        for field in expected
        if actual[field] != expected[field]
    ]


def write_expected() -> None:
    """Regenerate ``expected.json`` from the current program (maintenance only)."""
    answers: dict = {"compile-cold": {}, "dse-sweep": {}}
    for design in compile_designs():
        schedule, report, source, _ = cold_artifact(design)
        answers["compile-cold"][design_key(*design)] = design_record(schedule, report, source)
    for name in multi_consumer_names():
        points = sweep_memory_configurations(
            CompileTarget(build_algorithm(name), image_width=480, image_height=320)
        )
        answers["dse-sweep"][name] = {
            point.label: design_record(
                point.accelerator.schedule,
                point.report,
                generate_verilog(point.accelerator.schedule),
            )
            for point in points
        }
    EXPECTED_PATH.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")


def check_legal(schedule) -> list[str]:
    with trace_span("sim.legality"):
        report = check_schedule_legality(schedule)
    return [] if report.ok else ["schedule fails check_schedule_legality"]


def direct_allocate(schedule) -> list[str]:
    """Time ``realize_line_buffers`` on a solved schedule; it must reproduce the buffers."""
    with trace_span("memory.allocate"):
        buffers = realize_line_buffers(
            schedule.dag,
            schedule.image_width,
            schedule.memory_spec,
            schedule.start_cycles,
            schedule.coalesce_factors,
            schedule.solver_stats["ports"],
        )
    return [] if buffers == schedule.line_buffers else ["realize_line_buffers disagrees"]


def shuffled_rounds(rng: random.Random, items):
    def make_round():
        order = list(items)
        rng.shuffle(order)
        return order

    return make_round


# ---------------------------------------------------------------------------
# compile-cold
# ---------------------------------------------------------------------------
def cold_artifact(design):
    """One op: build, fingerprint, compile (no cache), report, Verilog, lint."""
    name, width, height, variant = design
    with trace_span("dsl.build"):
        dag = build_algorithm(name)
    target = make_target(dag, width, height, variant)
    with trace_span("api.fingerprint"):
        target.fingerprint
    with trace_span("core.compile"):
        schedule = compile_target(target).schedule
    with trace_span("estimate.report"):
        report = accelerator_report(schedule)
    with trace_span("rtl.generate"):
        source = generate_verilog(schedule)
    with trace_span("rtl.lint"):
        lint = lint_verilog(source)
    return schedule, report, source, lint


def compile_cold(run: Run) -> None:
    expected = load_expected()["compile-cold"]
    designs = compile_designs(run.smoke)
    measure_setup(run)
    pin_to_one_cpu(run)
    cold_artifact(designs[0])  # untimed warm-up: lazy imports finish before timing
    run.tail_cap = 90.0

    def run_op(design, traced):
        key = design_key(*design)
        try:
            started = time.perf_counter()
            schedule, report, source, lint = cold_artifact(design)
            latency = time.perf_counter() - started
            problems = record_problems(
                expected.get(key), design_record(schedule, report, source)
            )
            if not lint.ok:
                problems.append(f"lint: {lint.errors[:2]}")
            problems += check_legal(schedule)
            if traced:
                problems += direct_allocate(schedule)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            run.op_failed(f"{key}: {type(exc).__name__}: {exc}")
            return None
        if problems:
            run.op_failed(f"{key}: {'; '.join(problems)}")
        run.add_design(key, report.sram_kbytes, report.total_power_mw)
        return latency

    run_rounds(run, shuffled_rounds(random.Random(run.seed), designs), run_op)
    run.peak_rss_mb = process_peak_rss_mb()


# ---------------------------------------------------------------------------
# dse-sweep
# ---------------------------------------------------------------------------
def dse_sweep(run: Run) -> None:
    expected = load_expected()["dse-sweep"]
    names = multi_consumer_names(run.smoke)
    measure_setup(run)
    pin_to_one_cpu(run)
    sweep_memory_configurations(
        CompileTarget(build_algorithm(names[-1]), image_width=480, image_height=320)
    )  # untimed warm-up
    run.tail_cap = 75.0

    def run_op(name, traced):
        try:
            started = time.perf_counter()
            with trace_span("dsl.build"):
                dag = build_algorithm(name)
            target = CompileTarget(dag, image_width=480, image_height=320)
            with trace_span("dse.sweep"):
                points = sweep_memory_configurations(target)
            latency = time.perf_counter() - started
            answers = expected.get(name, {})
            problems = []
            if sorted(point.label for point in points) != sorted(answers):
                problems.append("design points differ from the expected configurations")
            for point in points:
                schedule = point.accelerator.schedule
                with trace_span("rtl.generate"):
                    source = generate_verilog(schedule)
                if traced:
                    with trace_span("estimate.report"):
                        accelerator_report(schedule, sizing="custom")
                problems += [
                    f"{point.label}: {problem}"
                    for problem in record_problems(
                        answers.get(point.label), design_record(schedule, point.report, source)
                    )
                    + check_legal(schedule)
                ]
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            run.op_failed(f"{name}: {type(exc).__name__}: {exc}")
            return None
        if problems:
            run.op_failed(f"{name}: {'; '.join(problems[:3])}")
        for point in points:
            run.add_design(
                f"{name}:{point.label}", point.report.sram_kbytes, point.report.total_power_mw
            )
        return latency

    run_rounds(run, shuffled_rounds(random.Random(run.seed), names), run_op)
    run.peak_rss_mb = process_peak_rss_mb()


# ---------------------------------------------------------------------------
# verify-catalog
# ---------------------------------------------------------------------------
def direct_verify_layers(schedule, check: str, seed: int) -> None:
    """Call the layers one verify check runs, on the same schedule and seed."""
    dag, width, height = schedule.dag, schedule.image_width, schedule.image_height
    if check == "golden":
        with trace_span("sim.golden_frames"):
            golden_frames(dag, width, height, frames=FRAMES, seed=seed)
        with trace_span("sim.replay"):
            replay_frames(dag, width, height, frames=FRAMES, seed=seed)
    elif check == "cycle":
        check_legal(schedule)
    else:
        with trace_span("rtl.generate"):
            source = generate_verilog(schedule)
        with trace_span("rtl.elaborate"):
            design = elaborate_design(source, dag)
        if check == "rtl":
            with trace_span("sim.golden_frames"):
                inputs = golden_frames(dag, width, height, frames=FRAMES, seed=seed)
            with trace_span("rtl.sim"):
                simulate_design(design, schedule, inputs)
        else:
            measure_performance(design, height, bound_cycles=schedule.end_to_end_latency_cycles)


def verify_catalog(run: Run) -> None:
    names = catalog_names(run.smoke)
    measure_setup(run)
    pin_to_one_cpu(run)
    engine = CompileEngine(cache_dir=tempfile.mkdtemp(prefix="verify-", dir=run.workdir))
    verifier = VerifyEngine(engine)
    run.tail_cap = 80.0
    try:
        targets = {
            name: CompileTarget(build_algorithm(name), image_width=480, image_height=320)
            for name in names
        }
        schedules = {name: engine.submit(target).unwrap().schedule for name, target in targets.items()}
        for name, schedule in schedules.items():
            report = accelerator_report(schedule)
            run.add_design(name, report.sram_kbytes, report.total_power_mw)
        used_seeds = {0}
        for check in CHECKS:  # untimed warm-up of every check kind
            verifier.submit(VerifyRequest(target=targets[names[0]], check=check, seed=0))
        rng = random.Random(run.seed)

        def fresh_seed() -> int:
            while True:
                seed = rng.randrange(1, 2**31)
                if seed not in used_seeds:
                    used_seeds.add(seed)
                    return seed

        def run_op(pair, traced):
            name, check = pair
            seed = fresh_seed()
            request = VerifyRequest(target=targets[name], check=check, frames=FRAMES, seed=seed)
            try:
                started = time.perf_counter()
                result = verifier.submit(request)
                latency = time.perf_counter() - started
                problems = []
                if result.passed is not True:
                    problems.append(result.failure_summary())
                if result.source != "verified":
                    problems.append(f"verdict served from {result.source}, not verified cold")
                if result.compile_source not in ("memory", "disk"):
                    problems.append(f"compile was not pre-warmed ({result.compile_source})")
                if traced:
                    run.record_spans(result.spans)
                    direct_verify_layers(schedules[name], check, seed)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                run.op_failed(f"{name}/{check}: {type(exc).__name__}: {exc}")
                return None
            if problems:
                run.op_failed(f"{name}/{check}: {'; '.join(problems)}")
            return latency

        def set_tracing(enabled: bool) -> None:
            engine.tracing = verifier.tracing = enabled

        pairs = [(name, check) for name in names for check in CHECKS for _ in range(DRAWS[check])]
        run_rounds(
            run,
            shuffled_rounds(rng, pairs),
            run_op,
            set_tracing=set_tracing if run.traced else None,
        )
    finally:
        engine.shutdown()
    run.peak_rss_mb = process_peak_rss_mb()


# ---------------------------------------------------------------------------
# serve-http
# ---------------------------------------------------------------------------
class ServerProcess:
    """``python -m repro.service.http`` in a subprocess with a fresh disk cache."""

    def __init__(self, run: Run, *, traced: bool) -> None:
        cache_dir = tempfile.mkdtemp(prefix="server-", dir=run.workdir)
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service.http",
                "--host", "127.0.0.1", "--port", "0",
                "--cache-dir", cache_dir, "--access-log", "none",
            ],
            cwd=ROOT,
            env=run.child_env(traced),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60)
            banner = self.proc.stdout.readline() if ready else ""
            match = re.search(r"http://[^\s:]+:(\d+)", banner)
            if match is None:
                raise RuntimeError(f"server did not start (banner {banner!r})")
            self.client = ServiceClient("127.0.0.1", int(match.group(1)), timeout=60)
            deadline = time.perf_counter() + 60
            while True:
                try:
                    self.client.health()
                    break
                except ServiceError:
                    if time.perf_counter() > deadline:
                        raise
                    time.sleep(0.002)
            self.healthy = time.perf_counter()
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self.proc.stdout.close()


def reference_row(result) -> dict:
    """An in-process compile's report row, normalised through JSON like the wire."""
    return json.loads(json.dumps(accelerator_report(result.unwrap()).row()))


def miss_targets(dags: dict, rng: random.Random):
    """Endless seeded targets, each at a resolution no earlier request used.

    Every (algorithm, variant) pair comes once per round, in a seeded order,
    at a seeded resolution near 480x320, so the mix of miss costs is the same
    from seed to seed.
    """
    seen = set()
    pairs = [(name, variant) for name in sorted(dags) for variant in VARIANTS]
    while True:
        rng.shuffle(pairs)
        for name, variant in pairs:
            while True:
                width, height = rng.randrange(400, 561, 8), rng.randrange(240, 401, 8)
                key = (name, width, height, variant)
                if key not in seen and (width, height) not in RESOLUTIONS:
                    break
            seen.add(key)
            yield make_target(dags[name], width, height, variant)


#: Wall seconds of one closed-loop slice; the calibration runs between slices.
SLICE_SECONDS = 0.5


def slice_calibration() -> float:
    """Median of three calibrations: one preempted loop does not skew a slice."""
    return median([calibration_seconds() for _ in range(3)])


def closed_loop(run: Run, client, catalog, next_miss, seconds: float, traced: bool):
    """``CLIENTS`` threads, each sending its next compile when the last returns.

    The load runs in slices of ``SLICE_SECONDS``; between slices the clients
    pause while the calibration loop measures the machine's speed, and every
    request of a slice is scaled by the calibrations on either side of it.
    An untraced load adds each slice's requests per reference second to
    ``run.slice_rates``.  Returns the reference seconds the load ran and, per
    request, ``(target, miss, reference latency, response, speed factor)``.
    """
    rngs = [random.Random(f"{run.seed}:{int(traced)}:{index}") for index in range(CLIENTS)]
    sent = [rng.randrange(MISS_EVERY) for rng in rngs]
    records: list[tuple] = []
    reference_seconds = 0.0
    before = slice_calibration()
    for _ in range(max(1, round(seconds / SLICE_SECONDS))):
        slice_end = time.perf_counter() + SLICE_SECONDS
        results: list[list] = [[] for _ in range(CLIENTS)]

        def worker(index: int) -> None:
            rng, out = rngs[index], results[index]
            while time.perf_counter() < slice_end:
                sent[index] += 1
                miss = sent[index] % MISS_EVERY == 0
                target = next_miss() if miss else rng.choice(catalog)
                started = time.perf_counter()
                try:
                    response = client.compile(target, trace=traced)
                except Exception as exc:  # noqa: BLE001 - recorded as a failed op
                    response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                out.append((target, miss, time.perf_counter() - started, response))

        started = time.perf_counter()
        threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("HTTP client threads did not finish")
        elapsed = time.perf_counter() - started
        after = slice_calibration()
        factor = speed_factor(before, after)
        before = after
        run.factors.append(factor)
        reference_seconds += elapsed * factor
        if not traced:
            run.slice_rates.append(sum(map(len, results)) / (elapsed * factor))
        for out in results:
            records.extend(
                (target, miss, latency * factor, response, factor)
                for target, miss, latency, response in out
            )
    return reference_seconds, records


def time_service_layers(run: Run, engine, target, source: str) -> float:
    """Wire codec, fingerprint and warm in-process submit for one target.

    Returns the wall seconds spent in the codec and the submit: what an HTTP
    hit costs inside the server before parsing, sockets and threads.
    """
    with collect_spans() as trace:
        with trace_span("service.wire_encode"):
            wire = target_to_wire(target)
        with trace_span("service.wire_decode"):
            decoded = target_from_wire(wire)
        copy = target_from_wire(wire)
        with trace_span("api.fingerprint"):
            copy.fingerprint
        with trace_span("service.engine_submit_warm"):
            engine.submit(decoded).unwrap()
    run.record_spans(trace.spans, source)
    spent = {span.name: span.seconds for span in trace.spans}
    return (
        spent["service.wire_encode"]
        + spent["service.wire_decode"]
        + spent["service.engine_submit_warm"]
    )


def http_overhead_samples(run: Run, engine, hits, source: str, block: int = 25) -> None:
    """``service.http_overhead``: HTTP hit latency minus codec and warm submit.

    ``hits`` are ``(target, reference latency)`` pairs.  The in-process
    layers are timed in blocks between two calibrations so both sides of the
    subtraction are in reference time.
    """
    for start in range(0, len(hits), block):
        chunk = hits[start:start + block]
        before = calibration_seconds()
        inside = [time_service_layers(run, engine, target, source) for target, _ in chunk]
        factor = speed_factor(before, calibration_seconds())
        for (_, latency), seconds in zip(chunk, inside):
            run.add_sample(
                "service.http_overhead", (latency - seconds * factor) * 1000.0, source, factor=1.0
            )
        run.commit(factor)


def record_miss_spans(run: Run, response: dict, source: str) -> None:
    spans = spans_from_payload(response.get("spans"))
    run.record_spans(spans, source)
    for root in spans:
        for span in root.walk():
            if span.name == "solve":
                run.add_sample("service.miss_solve", span.seconds * 1000.0, source)


def serve_http(run: Run) -> None:
    before = calibration_seconds()
    with collect_spans(enabled=run.traced) as trace:
        dags = {}
        for name in catalog_names(run.smoke):
            with trace_span("dsl.build"):
                dags[name] = build_algorithm(name)
    run.record_spans(trace.spans)
    run.commit(speed_factor(before, calibration_seconds()))
    catalog = [
        make_target(dags[name], width, height, variant)
        for name, width, height, variant in compile_designs(run.smoke)
    ]
    first = make_target(dags[catalog_names(run.smoke)[0]], 480, 320, "ours")
    for _ in range(run.setup_repeats):
        server = ServerProcess(run, traced=run.traced)
        try:
            response = server.client.compile(first)
            done = time.perf_counter()
        finally:
            server.stop()
        if not response.get("ok"):
            raise RuntimeError(f"set-up compile failed: {response.get('error')}")
        run.setup.append((server.healthy - server.launched, done - server.healthy))
    # The measured servers inherit this pin, so the load, its clients and
    # the calibration between slices all run on the same CPU.
    pin_to_one_cpu(run)

    # The in-process reference every response is checked against; its warm
    # cache also serves the in-process submit timings of a traced run.
    reference = CompileEngine(tracing=False)
    misses = miss_targets(dags, random.Random(f"{run.seed}:misses"))
    lock = threading.Lock()

    def next_miss():
        with lock:
            return next(misses)

    run.tail_cap = 90.0
    phases = (False, True) if run.traced else (False,)
    try:
        expected_rows = {
            result.fingerprint: reference_row(result)
            for result in reference.submit_batch(catalog).results
        }
        records_by_phase = {}
        for traced in phases:
            server = ServerProcess(run, traced=traced)
            try:
                batch = server.client.compile_batch(catalog)
                for target, row in zip(catalog, batch["results"]):
                    run.attempted += 1
                    if not row.get("ok") or row.get("report") != expected_rows.get(target.fingerprint):
                        run.op_failed(f"pre-compile of {target.fingerprint[:12]} differs")
                    elif not traced:
                        run.add_design(
                            row["fingerprint"], row["report"]["sram_kb"], row["report"]["total_power_mw"]
                        )
                reference_seconds, records = closed_loop(
                    run, server.client, catalog, next_miss, run.seconds / len(phases), traced
                )
                if not traced:
                    run.peak_rss_mb = server.peak_rss_mb()
            finally:
                server.stop()
            records_by_phase[traced] = records
            run.notes.append(
                f"{'traced' if traced else 'untraced'} phase: {len(records)} requests, "
                f"{sum(record[1] for record in records)} misses, "
                f"{reference_seconds:.2f} reference s"
            )

        for traced, records in records_by_phase.items():
            hits = 0
            for target, miss, latency, response, factor in records:
                run.attempted += 1
                (run.traced_latencies if traced else run.latencies).append(latency)
                hits += response.get("source") in ("memory", "disk")
                if miss:
                    expected = reference_row(reference.submit(target))
                else:
                    expected = expected_rows[target.fingerprint]
                if not response.get("ok"):
                    run.op_failed(f"request failed: {response.get('error')}")
                elif response.get("fingerprint") != target.fingerprint:
                    run.op_failed("response fingerprint differs from the in-process compile")
                elif response.get("report") != expected:
                    run.op_failed(f"report row of {target.fingerprint[:12]} differs")
                if traced:
                    # Server-side spans ran in the request's slice, at its speed.
                    run.traced_ops["workload"] += 1
                    if miss:
                        record_miss_spans(run, response, "workload")
                    else:
                        run.record_spans(spans_from_payload(response.get("spans")))
                    run.commit(factor)
            if traced:
                run.ratios[("service.cache_hit_ratio", "workload")] = (hits, len(records))
        if run.traced:
            hits = [(record[0], record[2]) for record in records_by_phase[False] if not record[1]]
            http_overhead_samples(run, reference, hits[:300], "workload")
    finally:
        reference.shutdown()


# ---------------------------------------------------------------------------
# Probe: every layer on one small design
# ---------------------------------------------------------------------------
def probe_layers(run: Run) -> None:
    """Time every layer on one small design (unsharp-m at 480x320).

    A traced run reports the full per-layer set; a layer the workload itself
    does not call (say, RTL simulation in compile-cold) is reported from
    this probe, and the printed report names the source of every layer.
    """
    engine = CompileEngine(
        cache_dir=tempfile.mkdtemp(prefix="probe-", dir=run.workdir), tracing=True
    )
    server = start_server(engine)
    client = ServiceClient("127.0.0.1", server.port, timeout=60)
    hits = lookups = 0
    try:
        for rep in range(PROBE_REPEATS):
            before = calibration_seconds()
            with collect_spans() as trace:
                with trace_span("probe"):
                    with trace_span("dsl.build"):
                        dag = build_algorithm(PROBE_ALGORITHM)
                    target = CompileTarget(dag, image_width=480, image_height=320)
                    with trace_span("api.fingerprint"):
                        target.fingerprint
                    with trace_span("core.compile"):
                        schedule = compile_target(target).schedule
                    direct_allocate(schedule)
                    with trace_span("estimate.report"):
                        accelerator_report(schedule)
                    with trace_span("rtl.generate"):
                        source = generate_verilog(schedule)
                    with trace_span("rtl.lint"):
                        lint_verilog(source)
                    with trace_span("rtl.elaborate"):
                        design = elaborate_design(source, dag)
                    with trace_span("sim.golden_frames"):
                        inputs = golden_frames(dag, 480, 320, frames=FRAMES, seed=rep)
                    with trace_span("rtl.sim"):
                        simulate_design(design, schedule, inputs)
                    with trace_span("sim.replay"):
                        replay_frames(dag, 480, 320, frames=FRAMES, seed=rep)
                    check_legal(schedule)
                    with trace_span("dse.sweep"):
                        sweep_memory_configurations(target)
            run.record_spans(trace.spans, "probe")
            run.traced_ops["probe"] += 1
            response = client.compile(target.with_resolution(496 + 16 * rep, 320), trace=True)
            record_miss_spans(run, response, "probe")
            lookups += 1
            hits += response.get("source") in ("memory", "disk")
            run.commit(speed_factor(before, calibration_seconds()))

            before = calibration_seconds()
            latencies = []
            for _ in range(10):
                started = time.perf_counter()
                response = client.compile(target)
                latencies.append(time.perf_counter() - started)
                lookups += 1
                hits += response.get("source") in ("memory", "disk")
            factor = speed_factor(before, calibration_seconds())
            http_overhead_samples(
                run, engine, [(target, latency * factor) for latency in latencies], "probe"
            )
    finally:
        server.stop()
        engine.shutdown()
    run.ratios[("service.cache_hit_ratio", "probe")] = (hits, lookups)


WORKLOAD_FUNCTIONS = {
    "compile-cold": compile_cold,
    "dse-sweep": dse_sweep,
    "serve-http": serve_http,
    "verify-catalog": verify_catalog,
}
