"""Shared machinery for the benchmark: declarations, statistics, spans, set-up probes.

Everything the four workloads share lives here:

* the workload and metric declarations that ``BENCHMARK.json`` mirrors
  (``python3 perfbench/run.py --write-manifest`` regenerates it);
* percentile helpers, including the tail rule ("the highest percentile that
  leaves at least ten samples beyond it");
* :class:`Run`, the state of one invocation: op latencies, failures, the
  designs whose SRAM/power sums guard quality, and the span records of a
  traced run;
* folding span trees into per-layer samples and self times;
* the fresh-process set-up probe behind ``setup_s``;
* machine and runtime metadata.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from importlib import metadata as importlib_metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"

#: Environment variables that select a non-default behaviour of the program.
#: They are removed so every run measures the defaults users get.
OVERRIDE_ENV_VARS = (
    "REPRO_ILP_BACKEND",
    "REPRO_EXECUTOR",
    "REPRO_WORKERS",
    "REPRO_MAX_PENDING",
    "REPRO_EVENT_LOG",
    "REPRO_HDL_SIM",
)

WORKLOADS = {
    "compile-cold": (
        "full cold design artifacts (compile, report, Verilog, lint) for every catalog "
        "algorithm at 480x320 and 1080p, ours and ours+lc: the lightweight-compilation path"
    ),
    "dse-sweep": (
        "DP/DPLC memory sweeps of the multi-consumer algorithms at 480x320: "
        "warm-certified and compound solves that cold compiles never take"
    ),
    "serve-http": (
        "2 closed-loop HTTP clients against a server subprocess, 4 in 5 requests warm catalog "
        "hits and 1 in 5 misses at unseen resolutions: read path vs miss/write path"
    ),
    "verify-catalog": (
        "cold golden/cycle/rtl/perf verdicts for every catalog algorithm at 480x320 with "
        "2 frames on pre-warmed compiles: replay and RTL simulation"
    ),
}

#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("design_sram_kb", "KB", "lower", 0.001),
    ("design_power_mw", "mW", "lower", 0.001),
)

#: Layers timed in a traced run; each yields ``<layer>_ms`` (median) and
#: ``<layer>_p95_ms``.  See README.md for the end-to-end metric each moves.
LAYER_TIMES = (
    "dsl.build",
    "core.prologue",
    "ilp.solve",
    "memory.allocate",
    "estimate.report",
    "rtl.generate",
    "rtl.lint",
    "rtl.elaborate",
    "rtl.sim",
    "sim.replay",
    "sim.golden_frames",
    "sim.legality",
    "dse.sweep",
    "api.fingerprint",
    "service.wire_encode",
    "service.wire_decode",
    "service.engine_submit_warm",
    "service.http_overhead",
    "service.disk_write",
    "service.miss_solve",
)

#: (name, unit, better) of the per-layer metrics that are not layer times.
LAYER_OTHER = (
    ("setup.import_s", "s", "lower"),
    ("setup.first_compile_s", "s", "lower"),
    ("core.disjunctions", "count", "lower"),
    ("ilp.lp_iterations", "count", "lower"),
    ("ilp.bnb_nodes", "count", "lower"),
    ("core.warm_certified_ratio", "ratio", "higher"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("trace.overhead_ms", "ms", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    metrics = []
    for layer in LAYER_TIMES:
        metrics.append((f"{layer}_ms", "ms", "lower"))
        metrics.append((f"{layer}_p95_ms", "ms", "lower"))
    metrics.extend(LAYER_OTHER)
    return metrics


RUN_SECONDS = 15


def manifest() -> dict:
    """The ``BENCHMARK.json`` document these declarations describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer_metrics()
        ],
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
#: Candidate percentiles for ``op_tail_ms``, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int, cap: float) -> float:
    """Highest ladder percentile <= ``cap`` with at least ten samples beyond it.

    Each workload fixes ``cap`` for its nominal sample count, so the reported
    percentile stays the same from run to run; it only steps down when a run
    is too short to leave ten samples beyond the cap.
    """
    for pct in TAIL_LADDER:
        if pct <= cap and count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def median(values) -> float:
    return statistics.median(values)


# ---------------------------------------------------------------------------
# Speed calibration
# ---------------------------------------------------------------------------
#: What :func:`calibration_seconds` takes on the reference machine (a 2-core
#: x86-64 VM running CPython 3.11 and NumPy 2.4).
REFERENCE_CALIBRATION_S = 0.008

_WORDS = [f"w{i}" for i in range(200)]


def calibration_seconds() -> float:
    """Wall time of one fixed reference workload, right now.

    The shared machines this benchmark runs on change speed by up to 2x
    within a minute, as other tenants come and go, which no amount of
    averaging inside a 10-second run removes.  Every time the benchmark
    reports is therefore scaled by ``REFERENCE_CALIBRATION_S`` over this
    loop's time measured just before and just after the work (see
    :func:`speed_factor`), so figures read as if the machine ran at its
    reference speed.  The loop mixes the program's kinds of work: integer
    arithmetic, dict/str handling and NumPy array passes.  It never calls the
    program, so a change to the program cannot move it, and it runs with the
    garbage collector paused so the program's heap size cannot either.
    The CPUs of a shared machine slow down independently, so the measured
    work runs pinned to the CPU this loop runs on (:func:`pin_to_one_cpu`).
    """
    import numpy as np

    array = np.arange(200_000, dtype=np.float64)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i
        table: dict[str, int] = {}
        for i in range(3_000):
            key = _WORDS[i % 200]
            table[key] = table.get(key, 0) + i
            f"{key}:{i}".split(":")
        sorted(table.items(), key=lambda item: -item[1])
        for _ in range(5):
            array * 1.5 + array[::-1]
        return time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()


def speed_factor(before: float, after: float) -> float:
    """Scale from measured to reference time for work between two calibrations."""
    return 2.0 * REFERENCE_CALIBRATION_S / (before + after)


# ---------------------------------------------------------------------------
# Run state
# ---------------------------------------------------------------------------
class Run:
    """State of one benchmark invocation.

    Every time stored here is already scaled to the reference speed.  Spans
    and layer samples recorded while a unit of work runs are held pending
    until :meth:`commit` learns that unit's speed factor.
    """

    def __init__(self, *, workload: str, seed: int, seconds: float, traced: bool, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.smoke = smoke
        self.setup_repeats = 1 if smoke else 5
        WORK_DIR.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
        #: Untraced and traced op latencies, in reference seconds.
        self.latencies: list[float] = []
        self.traced_latencies: list[float] = []
        #: Reference seconds the measured ops took (the ``ops_per_s`` base).
        self.measured_seconds = 0.0
        #: Ops per reference second of each load slice; when set, ``ops_per_s``
        #: is their median.
        self.slice_rates: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failure_messages: list[str] = []
        #: design key -> (sram_kb, total_power_mw), each design counted once.
        self.designs: dict[str, tuple[float, float]] = {}
        #: Wall (import_s, first_op_s) of every fresh-process set-up; see
        #: :func:`scaled_setups`.
        self.setup: list[tuple[float, float]] = []
        self.peak_rss_mb = 0.0
        #: (source, span forest, speed factor) of every traced unit of work;
        #: source is "workload" or "probe".
        self.span_records: list[tuple[str, tuple, float]] = []
        #: Per source, layer samples (reference ms) measured directly.
        self.samples: dict[str, dict[str, list[float]]] = {
            "workload": defaultdict(list),
            "probe": defaultdict(list),
        }
        self._pending: list[tuple] = []
        #: Every speed factor applied, for the report.
        self.factors: list[float] = []
        #: (metric, source) -> (numerator, base) of a ratio.
        self.ratios: dict[tuple[str, str], tuple[int, int]] = {}
        #: Ops whose spans were recorded, per source (counts are per op).
        self.traced_ops = {"workload": 0, "probe": 0}
        self.tail_cap = 90.0
        self.notes: list[str] = []

    def child_env(self, traced: bool) -> dict:
        """Environment for a program subprocess: defaults only, tracing as asked."""
        env = {k: v for k, v in os.environ.items() if k not in OVERRIDE_ENV_VARS}
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        env["REPRO_TRACE"] = "1" if traced else "0"
        return env

    def record_spans(self, spans, source: str = "workload") -> None:
        if spans:
            self._pending.append(("spans", source, tuple(spans)))

    def add_sample(
        self, layer: str, milliseconds: float, source: str = "workload", *, factor=None
    ) -> None:
        """Add a layer sample; without ``factor`` it is scaled at :meth:`commit`."""
        if factor is None:
            self._pending.append(("sample", source, layer, milliseconds))
        else:
            self.samples[source][layer].append(milliseconds * factor)

    def commit(self, factor: float) -> None:
        """Scale and keep everything recorded since the last commit."""
        self.factors.append(factor)
        for kind, source, *rest in self._pending:
            if kind == "spans":
                self.span_records.append((source, rest[0], factor))
            else:
                layer, milliseconds = rest
                self.samples[source][layer].append(milliseconds * factor)
        self._pending.clear()

    def op_failed(self, message: str) -> None:
        self.failed += 1
        if len(self.failure_messages) < 20:
            self.failure_messages.append(message)

    def add_design(self, key: str, sram_kb: float, power_mw: float) -> None:
        self.designs.setdefault(key, (sram_kb, power_mw))

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def pin_to_one_cpu(run: Run) -> None:
    """Pin this process, and the threads it starts from now on, to one CPU.

    The in-process workloads issue one op at a time, but the program may run
    that op on a worker thread.  The CPUs of a shared machine slow down
    independently, so the calibration loop, which runs on this thread, only
    tracks the op's speed when both run on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        run.notes.append(f"measured ops pinned to CPU {cpu}")


def process_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Rounds: the measured loop of the in-process workloads
# ---------------------------------------------------------------------------
def run_rounds(run: Run, make_round, run_op, *, set_tracing=None) -> None:
    """Run whole rounds of ops until ``run.seconds`` of wall time is spent.

    Whole rounds keep the op mix identical from run to run, so percentiles
    land on the same ops.  A traced run alternates untraced and traced
    rounds (at least one of each); ``set_tracing`` lets a workload switch
    engine-level tracing with them.  ``run_op(op, traced)`` returns the op's
    wall latency in seconds, or ``None`` when the op failed; the calibration
    loop runs between ops and scales each latency to the reference speed.
    """
    from repro.trace import collect_spans

    started = time.perf_counter()
    round_seconds: list[float] = []
    rounds = 0
    while True:
        traced = run.traced and rounds % 2 == 1
        if set_tracing is not None:
            set_tracing(traced)
        round_started = time.perf_counter()
        before = calibration_seconds()
        for op in make_round():
            run.attempted += 1
            with collect_spans(enabled=traced) as trace:
                latency = run_op(op, traced)
            run.record_spans(trace.spans)
            after = calibration_seconds()
            factor = speed_factor(before, after)
            before = after
            run.commit(factor)
            if traced:
                run.traced_ops["workload"] += 1
            if latency is not None:
                (run.traced_latencies if traced else run.latencies).append(latency * factor)
                if not traced:
                    run.measured_seconds += latency * factor
        round_seconds.append(time.perf_counter() - round_started)
        rounds += 1
        elapsed = time.perf_counter() - started
        enough = rounds >= (2 if run.traced else 1)
        if enough and elapsed + statistics.mean(round_seconds) / 2 >= run.seconds:
            break
    if set_tracing is not None:
        set_tracing(False)
    run.notes.append(f"{rounds} rounds in {elapsed:.2f} s of wall time")


# ---------------------------------------------------------------------------
# Span folding
# ---------------------------------------------------------------------------
def _walk(records, source: str):
    """Yield (span, speed factor) for every span one source recorded."""
    for record_source, forest, factor in records:
        if record_source != source:
            continue
        for root in forest:
            for span in root.walk():
                yield span, factor


def self_seconds(span) -> float:
    """A span's duration minus the part its (sequential) children cover."""
    return max(0.0, span.seconds - sum(child.seconds for child in span.children))


def _program_layer(span):
    """``(layer, seconds)`` for a program span that times a layer, else ``None``."""
    if span.name == "solve":
        return "core.prologue", self_seconds(span)
    if span.name == "ilp" and span.attrs.get("backend") != "warmstart":
        return "ilp.solve", span.seconds  # certified warm starts never reach a backend
    if span.name == "disk_write":
        return "service.disk_write", span.seconds
    return None


def layer_samples(run: Run, source: str) -> dict[str, list[float]]:
    """Per-layer samples in ms from one source's spans plus its direct samples."""
    samples: dict[str, list[float]] = defaultdict(list)
    for span, factor in _walk(run.span_records, source):
        if span.name in LAYER_TIMES:  # the benchmark's own spans are named after their layer
            samples[span.name].append(span.seconds * factor * 1000.0)
        elif (found := _program_layer(span)) is not None:
            layer, seconds = found
            samples[layer].append(seconds * factor * 1000.0)
    for layer, values in run.samples[source].items():
        samples[layer].extend(values)
    return samples


def span_counts(run: Run, source: str) -> dict[str, int]:
    """Solver counts and warm-start outcomes summed over one source's spans."""
    solves = disjunctions = lp_iterations = bnb_nodes = 0
    certified = attempts = 0
    backends: dict[str, int] = defaultdict(int)
    for span, _ in _walk(run.span_records, source):
        attrs = span.attrs
        if span.name == "solve":
            solves += 1
            disjunctions += int(attrs.get("disjunctions", 0))
            if attrs.get("strategy") == "compound":
                certified += int(attrs.get("certified", 0))
                attempts += int(attrs.get("variants", 0))
            elif "warm" in attrs:
                certified += attrs["warm"] == "certificate"
                attempts += 1
        elif span.name == "ilp":
            backends[str(attrs.get("backend"))] += 1
            lp_iterations += int(attrs.get("lp_iterations", 0))
            bnb_nodes += int(attrs.get("bnb_nodes", 0))
    return {
        "solves": solves,
        "core.disjunctions": disjunctions,
        "ilp.lp_iterations": lp_iterations,
        "ilp.bnb_nodes": bnb_nodes,
        "warm_certified": certified,
        "warm_attempts": attempts,
        "backends": dict(backends),
    }


def self_time_table(run: Run) -> list[tuple[str, int, float, float, float]]:
    """(span name, count, median, p95, total) self time in ms, hottest first."""
    by_name: dict[str, list[float]] = defaultdict(list)
    for source in ("workload", "probe"):
        for span, factor in _walk(run.span_records, source):
            label = span.name if source == "workload" else f"{span.name} [probe]"
            by_name[label].append(self_seconds(span) * factor * 1000.0)
    rows = [
        (name, len(values), median(values), percentile(values, 95), sum(values))
        for name, values in by_name.items()
    ]
    return sorted(rows, key=lambda row: -row[4])


# ---------------------------------------------------------------------------
# Fresh-process set-up
# ---------------------------------------------------------------------------
def scaled_setups(run: Run) -> list[tuple[float, float]]:
    """``run.setup`` in reference seconds.

    Every set-up of a run is scaled by one factor, the median of all speed
    factors the run applied to its measured work.  A start-up is one long
    stretch of work; a factor from the two 8 ms loops on either side of it
    swings with whatever else runs at that instant, and in ten runs of the
    same code spread the set-up times by 30% where the raw times spread 10%.
    """
    factor = median(run.factors)
    return [(imported * factor, first * factor) for imported, first in run.setup]


def measure_setup(run: Run) -> None:
    """Time ``setup_probe.py`` in fresh interpreters, ``run.setup_repeats`` times.

    The probe stamps ``time.monotonic()`` (one clock shared by all processes)
    when ``import repro`` is done and when its first operation completes;
    set-up is measured from just before the process is launched.
    """
    for _ in range(run.setup_repeats):
        cache_dir = tempfile.mkdtemp(prefix="setup-", dir=run.workdir)
        command = [sys.executable, str(BENCH_DIR / "setup_probe.py"), run.workload, cache_dir]
        launched = time.monotonic()
        completed = subprocess.run(
            command,
            env=run.child_env(run.traced),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"set-up probe failed ({completed.returncode}): {completed.stderr[-2000:]}"
            )
        stamps = json.loads(completed.stdout.strip().splitlines()[-1])
        run.setup.append(
            (stamps["imported"] - launched, stamps["first_op_done"] - stamps["imported"])
        )


# ---------------------------------------------------------------------------
# Metadata
# ---------------------------------------------------------------------------
def _version(package: str) -> str:
    try:
        return importlib_metadata.version(package)
    except importlib_metadata.PackageNotFoundError:
        return "absent"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def machine_metadata(run: Run) -> dict:
    from repro.ilp import highs
    from repro.ilp.solver import resolve_backend
    from repro.service.engine import default_worker_count
    from repro.service.executor import default_executor_name

    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.traced),
        "smoke": run.smoke,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "highs_available": highs.is_available(),
        "ilp_backend_auto": resolve_backend("auto"),
        "executor_default": default_executor_name(),
        "workers_default": default_worker_count(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def end_to_end_values(run: Run) -> dict[str, float]:
    """Every end-to-end metric of an untraced run."""
    latencies = run.latencies
    if not latencies:
        raise RuntimeError("no operation completed")
    pct = tail_percentile(len(latencies), run.tail_cap)
    beyond = sum(1 for value in latencies if value > percentile(latencies, pct))
    run.notes.append(f"op_tail_ms is p{pct:g} of {len(latencies)} ops ({beyond} beyond it)")
    return {
        "setup_s": median([imported + first for imported, first in scaled_setups(run)]),
        "op_p50_ms": median(latencies) * 1000.0,
        "op_tail_ms": percentile(latencies, pct) * 1000.0,
        "ops_per_s": (
            median(run.slice_rates) if run.slice_rates else len(latencies) / run.measured_seconds
        ),
        "peak_rss_mb": run.peak_rss_mb,
        # Summed in key order, so the float sum does not depend on op order.
        "design_sram_kb": sum(run.designs[key][0] for key in sorted(run.designs)),
        "design_power_mw": sum(run.designs[key][1] for key in sorted(run.designs)),
    }


def per_layer_values(run: Run) -> dict[str, float]:
    """Every per-layer metric of a traced run.

    A layer the workload itself exercised is reported from the workload's
    spans; any other layer comes from the probe design (see
    ``workloads.probe_layers``), and the printed report says which.
    """
    workload = layer_samples(run, "workload")
    probe = layer_samples(run, "probe")
    values: dict[str, float] = {}
    for layer in LAYER_TIMES:
        source, samples = ("workload", workload[layer]) if workload.get(layer) else (
            "probe",
            probe.get(layer, []),
        )
        if not samples:
            raise RuntimeError(f"no samples for layer {layer}")
        values[f"{layer}_ms"] = median(samples)
        values[f"{layer}_p95_ms"] = percentile(samples, 95)
        run.notes.append(f"{layer}: {len(samples)} samples from {source}")
    setups = scaled_setups(run)
    values["setup.import_s"] = median([imported for imported, _ in setups])
    values["setup.first_compile_s"] = median([first for _, first in setups])

    counts = {source: span_counts(run, source) for source in ("workload", "probe")}
    source = "workload" if counts["workload"]["solves"] else "probe"
    ops = max(1, run.traced_ops[source])
    for name in ("core.disjunctions", "ilp.lp_iterations", "ilp.bnb_nodes"):
        values[name] = counts[source][name] / ops
    run.notes.append(
        f"solver counts are per op over {ops} {source} ops; ilp spans by backend: "
        f"{counts[source]['backends']}"
    )
    source = "workload" if counts["workload"]["warm_attempts"] else "probe"
    certified, attempts = counts[source]["warm_certified"], counts[source]["warm_attempts"]
    values["core.warm_certified_ratio"] = certified / max(1, attempts)
    run.notes.append(f"core.warm_certified_ratio = {certified}/{attempts} ({source})")
    key = ("service.cache_hit_ratio", "workload")
    if key not in run.ratios:
        key = ("service.cache_hit_ratio", "probe")
    hits, lookups = run.ratios[key]
    values["service.cache_hit_ratio"] = hits / max(1, lookups)
    run.notes.append(f"service.cache_hit_ratio = {hits}/{lookups} ({key[1]})")

    traced, untraced = median(run.traced_latencies), median(run.latencies)
    values["trace.overhead_ms"] = (traced - untraced) * 1000.0
    run.notes.append(
        f"tracing overhead: traced op_p50 {traced * 1000:.3f} ms - untraced op_p50 "
        f"{untraced * 1000:.3f} ms ({len(run.traced_latencies)} vs {len(run.latencies)} ops)"
    )
    return values
