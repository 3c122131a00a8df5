"""Verification-as-a-service: golden replay and cycle legality as cached queries.

Stability: stable.

Compilation grew into a cached, admission-controlled, traced service;
verification — "does this design compute the right pixels, and is its
schedule stall-free?" — stayed a local library call.  This module closes the
gap with a :class:`VerifyEngine` that serves two check kinds with the same
production machinery compiles get:

``golden``
    Vectorized functional replay (:mod:`repro.sim.batch`): deterministic
    seeded frames run through both the *request's* DAG (the reference) and
    the *compiled* DAG (after any generator rewrites — Darkroom relays,
    coalescing), whole frame-batch per stage.  Passes when the outputs agree
    within ``tolerance`` (bit-exact by default) and, when the client pinned
    an ``expected_digest``, when the reference digest matches it.

``cycle``
    Reserved-table legality (:func:`repro.sim.cycle.check_schedule_legality`):
    closed-form R1/R2 plus a periodic R3 slot table over ports and blocks —
    O(lines x accessors) per buffer instead of the event walk's O(cycles).

``both`` runs the two in sequence (the default).

``rtl``
    RTL-level replay (:mod:`repro.rtl.sim`): the generated Verilog is
    elaborated back into a timing model and the same seeded golden frames
    stream through it, two-state and cycle-driven; passes when the RTL
    outputs agree **bit-exactly** with the vectorized replay.  Both share one
    evaluator, so this pins storage and timing under the DSL's float64
    arithmetic, not the emitted Q24.8 datapath.  When an
    external HDL tool (Icarus/Verilator) is available it additionally
    syntax-checks the source — optional, gated like the solver backends.

``perf``
    Performance measurement from the elaborated design: achieved
    cycles/frame and initiation interval, parsed out of the emitted source,
    against the schedule's ``end_to_end_latency_cycles`` bound; the verdict
    fails when achieved exceeds the bound.

Results are keyed by a **verify fingerprint** — SHA-256 over the compile
fingerprint x input spec (frames, seed, tolerance, expected digest) x check
kind — and reuse the compile service's production tiers: verdicts live in an
in-memory LRU plus the engine's shared :class:`~repro.service.cache.DiskCacheStore`
volume, identical in-flight requests deduplicate onto one execution, cold
verifies route through a bounded :class:`~repro.service.admission.AdmissionQueue`,
and the replay itself runs on an in-process executor backend.  Compiles are
*not* re-done: the engine's ``submit`` answers from its own cache/dedup/queue.

Verify bodies run on the same in-process backends as compiles: the NumPy
replay releases the GIL, so threads scale.

Spans (``verify`` > ``verify_compile``/``verify_golden``/``verify_cycle``/
``verify_rtl``/``verify_perf``) feed the engine's stage histograms, giving
Prometheus the
``repro_stage_seconds{stage="verify"}`` family; counters surface through
``GET /v1/metrics`` under ``verify_*`` keys (see
:mod:`repro.service.observability`).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import CancelledError, Future
from dataclasses import dataclass, field, replace

import numpy as np

from repro.api.fingerprint import _digest
from repro.api.target import CompileTarget
from repro.errors import SimulationError
from repro.service.admission import AdmissionQueue, QueueFullError
from repro.service.engine import CompileEngine
from repro.service.events import emit_event
from repro.service.executor import ExecutorBackend, relay_future, resolve_executor
from repro.sim.batch import replay_frames
from repro.sim.cycle import check_schedule_legality
from repro.trace import Span, collect_spans, trace_span

#: Version of the verify fingerprint composition *and* the verify wire/cache
#: payloads; bumping it invalidates every cached verdict.  v2 added the
#: ``rtl`` and ``perf`` check kinds; requests for the v1 kinds still encode
#: as v1 payloads (lowest sufficient version) and v1 payloads still decode.
VERIFY_FORMAT_VERSION = 2

#: Verify payload versions this build can decode.
READABLE_VERIFY_VERSIONS: tuple[int, ...] = (1, 2)

#: check kind -> one-line contract (single source for docs and validation).
CHECK_KINDS: dict[str, str] = {
    "golden": (
        "Functional replay of deterministic seeded frames through the reference "
        "and the compiled DAG; passes when outputs agree within tolerance "
        "(bit-exact by default) and match any pinned expected_digest."
    ),
    "cycle": (
        "Reserved-table legality of the compiled schedule: closed-form R1 "
        "(causality) and R2 (no premature eviction) plus a periodic R3 slot "
        "table (no port over-subscription) over blocks and ports; temporal "
        "schedules additionally check FB (frame-buffer coverage)."
    ),
    "both": "golden followed by cycle; passes only when both pass.",
    "rtl": (
        "Cycle-driven two-state simulation of the emitted Verilog (elaborated "
        "back from the source text): seeded golden frames stream through the "
        "design's line/frame buffers and must agree bit-exactly with the "
        "vectorized replay. Bit-exact pins storage and timing under the DSL's "
        "float64 arithmetic, not the emitted Q24.8 datapath. An external HDL "
        "tool, when present, additionally syntax-checks the source."
    ),
    "perf": (
        "Achieved cycles/frame and initiation interval measured from the "
        "elaborated RTL against the schedule's end-to-end latency bound; "
        "fails when achieved exceeds the bound."
    ),
}

#: check kind -> lowest verify payload version that can express it.  The
#: encoder stamps this (so v1 kinds keep producing byte-stable v1 payloads)
#: and the decoder rejects a kind stamped below its floor.
CHECK_KIND_MIN_VERSION: dict[str, int] = {
    "golden": 1,
    "cycle": 1,
    "both": 1,
    "rtl": 2,
    "perf": 2,
}

#: (version, check kinds, notes) — the wire-protocol compatibility table
#: (single source for docs/wire-protocol.md).
VERIFY_PAYLOAD_VERSIONS: tuple[tuple[int, str, str], ...] = (
    (
        1,
        "`golden`, `cycle`, `both`",
        "Original verify payload; still emitted for these kinds (lowest "
        "sufficient version) and still decoded.",
    ),
    (
        2,
        "all of v1 plus `rtl`, `perf`",
        "Adds RTL-simulation and performance verdicts; bumping also "
        "invalidated every cached v1 verdict (the version salts the verify "
        "fingerprint).",
    ),
)

#: Wire/request fields beyond ``version``/``target``: (name, type, default,
#: meaning).  Single source for the decoder's accepted-key set and the
#: generated docs table.
VERIFY_REQUEST_FIELDS: tuple[tuple[str, str, str, str], ...] = (
    (
        "check",
        "string",
        '"both"',
        "Check kind: `golden` | `cycle` | `both` | `rtl` | `perf` (see docs/verification.md).",
    ),
    ("frames", "int", "2", "Frames replayed per golden/rtl check (>= 1)."),
    ("seed", "int", "0", "Seed of the deterministic input-frame generator."),
    (
        "tolerance",
        "float",
        "0.0",
        "Max absolute per-pixel error tolerated; 0.0 demands bit-exact outputs.",
    ),
    (
        "expected_digest",
        "string or null",
        "null",
        "Pinned SHA-256 of the reference replay; mismatch fails the golden check.",
    ),
    (
        "strict",
        "bool",
        "false",
        "Raise (HTTP 422 `verify-failed`) on a failed check instead of returning `passed: false`.",
    ),
)


@dataclass(frozen=True)
class VerifyRequest:
    """One verification query: a compile target plus the input/check spec."""

    target: CompileTarget
    check: str = "both"
    frames: int = 2
    seed: int = 0
    tolerance: float = 0.0
    expected_digest: str | None = None
    strict: bool = False

    def __post_init__(self) -> None:
        if self.check not in CHECK_KINDS:
            raise ValueError(
                f"check must be one of {sorted(CHECK_KINDS)}, got {self.check!r}"
            )
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")

    @property
    def fingerprint(self) -> str:
        """The verify fingerprint (compile fingerprint x input spec x check)."""
        return verify_fingerprint(self)

    @property
    def wants_golden(self) -> bool:
        return self.check in ("golden", "both")

    @property
    def wants_cycle(self) -> bool:
        return self.check in ("cycle", "both")

    @property
    def wants_rtl(self) -> bool:
        return self.check == "rtl"

    @property
    def wants_perf(self) -> bool:
        return self.check == "perf"


def verify_fingerprint(request: VerifyRequest) -> str:
    """Content address of one verdict.

    ``strict`` is deliberately excluded: it changes how a failure is
    *delivered* (exception vs ``passed: false``), never what is computed, so
    strict and lax requests share cache entries and in-flight executions.
    """
    return _digest(
        {
            "verify_version": VERIFY_FORMAT_VERSION,
            "compile_fingerprint": request.target.fingerprint,
            "check": request.check,
            "frames": request.frames,
            "seed": request.seed,
            "tolerance": request.tolerance,
            "expected_digest": request.expected_digest,
        }
    )


@dataclass
class VerifyResult:
    """Outcome of one verify submission (cached, deduplicated, or fresh)."""

    request: VerifyRequest
    fingerprint: str
    compile_fingerprint: str
    passed: bool | None  # None when the check itself errored
    golden: dict | None = None
    cycle: dict | None = None
    rtl: dict | None = None
    perf: dict | None = None
    error: str | None = None
    error_kind: str | None = None
    source: str = "verified"  # verified | memory | disk | deduplicated
    compile_source: str | None = None
    seconds: float = 0.0
    spans: tuple[Span, ...] = ()

    @property
    def ok(self) -> bool:
        """Whether the check *ran* (a failed check is ok; an error is not)."""
        return self.error is None

    def failure_summary(self) -> str:
        """One line naming every failed check (for strict raises and logs)."""
        parts = []
        if self.golden is not None and not self.golden.get("passed", True):
            if self.golden.get("expected_match") is False:
                parts.append(
                    "golden digest mismatch (expected "
                    f"{(self.golden.get('expected_digest') or '')[:12]}…, got "
                    f"{self.golden.get('digest', '')[:12]}…)"
                )
            else:
                parts.append(
                    f"golden output mismatch (max_abs_error={self.golden.get('max_abs_error')})"
                )
        if self.cycle is not None and not self.cycle.get("passed", True):
            rules = sorted(
                {violation["rule"] for violation in self.cycle.get("violations", ())}
            )
            parts.append(f"cycle legality violated ({', '.join(rules)})")
        if self.rtl is not None and not self.rtl.get("passed", True):
            if self.rtl.get("expected_match") is False:
                parts.append(
                    "rtl digest mismatch vs pinned expected "
                    f"{(self.rtl.get('expected_digest') or '')[:12]}…"
                )
            elif self.rtl.get("external") and self.rtl["external"].get("ok") is False:
                parts.append(
                    f"external HDL check failed ({self.rtl['external'].get('tool')})"
                )
            else:
                parts.append(
                    "rtl output mismatch (rtl "
                    f"{self.rtl.get('rtl_digest', '')[:12]}… != replay "
                    f"{self.rtl.get('digest', '')[:12]}…)"
                )
        if self.perf is not None and not self.perf.get("passed", True):
            parts.append(
                "perf bound exceeded "
                f"({self.perf.get('cycles_per_frame')} > "
                f"{self.perf.get('bound_cycles_per_frame')} cycles/frame)"
            )
        if self.error is not None:
            parts.append(f"{self.error_kind}: {self.error}")
        return "; ".join(parts) or "verify failed"


_INHERIT = object()


class VerifyEngine:
    """Serve verify requests with caching, dedup and admission control.

    Parameters
    ----------
    engine:
        The :class:`CompileEngine` whose compiles, disk-cache volume and
        metrics this verify tier shares.  Compiling the target goes through
        ``engine.submit`` — cache hits, dedup and the engine's own admission
        queue all apply before any replay starts.
    max_entries:
        In-memory verdict LRU bound.
    executor:
        Backend for verify bodies: an :class:`ExecutorBackend`, a name
        (``"inline"``/``"thread"``, sized like the engine), or ``None`` to
        share the engine's backend.
    max_pending / overflow:
        Admission bound and policy for cold verifies, defaulting to the
        engine's settings (``max_pending=None`` disables the queue).
    tracing:
        Whether verify executions record spans (default: the engine's flag).
    """

    def __init__(
        self,
        engine: CompileEngine,
        *,
        max_entries: int = 512,
        executor: ExecutorBackend | str | None = None,
        max_pending=_INHERIT,
        overflow: str | None = None,
        tracing: bool | None = None,
    ) -> None:
        self.engine = engine
        self.max_entries = max(1, int(max_entries))
        self.tracing = engine.tracing if tracing is None else bool(tracing)
        self._executor = (
            engine._executor  # noqa: SLF001 - deliberate sharing
            if executor is None
            else resolve_executor(executor, workers=engine.workers)
        )
        if max_pending is _INHERIT:
            max_pending = engine.max_pending
        self.max_pending = max_pending
        self.overflow = overflow or engine.overflow
        if max_pending is None:
            self._admission: AdmissionQueue | None = None
        else:
            self._admission = AdmissionQueue(
                self._executor.workers,
                max_pending=max_pending,
                policy=self.overflow,
                retry_after=lambda: self.engine.metrics.mean_seconds or 1.0,
            )
        self._lock = threading.Lock()
        self._inflight: dict[str, Future] = {}
        self._verdicts: OrderedDict[str, dict] = OrderedDict()
        self._counters = {
            "requests": 0,
            "verified": 0,
            "passed": 0,
            "failed": 0,
            "errors": 0,
            "rejected": 0,
            "served_from_memory": 0,
            "served_from_disk": 0,
            "deduplicated": 0,
            "rtl_simulations": 0,
            "perf_measurements": 0,
            "seconds_total": 0.0,
        }

    # ------------------------------------------------------------ submission
    def submit(self, request: VerifyRequest, *, client: str = "") -> VerifyResult:
        """Verify one request; cached, deduplicated and admission-controlled.

        Raises :class:`~repro.service.admission.QueueFullError` when the
        verify (or underlying compile) queue sheds the job, and
        :class:`~repro.errors.SimulationError` when ``request.strict`` and
        the check fails.
        """
        started = time.perf_counter()
        fingerprint = request.fingerprint
        self._count(requests=1)
        cached = self._lookup(fingerprint)
        owner = False
        if cached is None:
            with self._lock:
                # Read the memory tier again under the hold that guards the
                # in-flight table: an identical request may have been
                # remembered and forgotten since the lookup above missed.
                payload = self._recall(fingerprint)
                if payload is not None:
                    cached = payload, "memory"
                else:
                    future = self._inflight.get(fingerprint)
                    if future is None:
                        owner = True
                        future = Future()
                        future.set_running_or_notify_cancel()
                        self._inflight[fingerprint] = future
                        future.add_done_callback(
                            lambda _done, fp=fingerprint: self._forget(fp)
                        )
        if cached is not None:
            payload, tier = cached
            result = self._from_payload(request, fingerprint, payload, tier)
            result.seconds = time.perf_counter() - started
            self._count_outcome(result)
            return self._finalize(result)

        try:
            if owner:
                # A shed raises out of the dispatch itself (the placeholder is
                # settled with the same error for any joiners), so the counter
                # must cover both the dispatch and the wait.
                self._dispatch(request, fingerprint, future, client)
            result: VerifyResult = future.result()
        except QueueFullError:
            self._count(rejected=1)
            raise
        if not owner:
            result = replace(
                result, source="deduplicated", seconds=0.0, spans=(), request=request
            )
            self._count(deduplicated=1)
        else:
            result = replace(result, seconds=time.perf_counter() - started)
        self._count_outcome(result)
        return self._finalize(result)

    def _dispatch(
        self, request: VerifyRequest, fingerprint: str, future: Future, client: str
    ) -> None:
        def run_local(_target, _fingerprint) -> VerifyResult:
            return self._execute(request, fingerprint, client)

        def dispatch() -> Future:
            inner = self._executor.submit(run_local, request.target, fingerprint)
            inner.add_done_callback(lambda done: relay_future(done, future))
            return inner

        if self._admission is None:
            dispatch()
            return
        try:
            self._admission.submit(
                dispatch,
                client=client,
                on_cancel=lambda: future.set_exception(CancelledError()),
            )
        except BaseException as exc:  # QueueFullError, or a broken queue
            future.set_exception(exc)
            if isinstance(exc, QueueFullError):
                emit_event(
                    "queue.shed",
                    identity=client,
                    fingerprint=fingerprint,
                    retry_after=round(exc.retry_after, 3),
                )
            raise

    # -------------------------------------------------------------- the body
    def _execute(
        self, request: VerifyRequest, fingerprint: str, client: str
    ) -> VerifyResult:
        started = time.perf_counter()
        target = request.target
        golden = cycle = rtl = perf = None
        error = error_kind = None
        compile_source = None
        trace = collect_spans(enabled=self.tracing)
        try:
            with trace:
                with trace_span("verify", check=request.check, frames=request.frames):
                    with trace_span("verify_compile"):
                        compile_result = self.engine.submit(target, client=client)
                    compile_source = compile_result.source
                    if not compile_result.ok:
                        error = f"compile failed: {compile_result.error}"
                        error_kind = "CompileError"
                    else:
                        schedule = compile_result.unwrap().schedule
                        if request.wants_golden:
                            with trace_span("verify_golden", frames=request.frames):
                                golden = self._golden_check(request, schedule)
                        if request.wants_cycle:
                            with trace_span("verify_cycle"):
                                report = check_schedule_legality(schedule)
                                cycle = report.to_payload()
                        if request.wants_rtl:
                            with trace_span("verify_rtl", frames=request.frames):
                                rtl = self._rtl_check(request, schedule)
                            self._count(rtl_simulations=1)
                        if request.wants_perf:
                            with trace_span("verify_perf"):
                                perf = self._perf_check(schedule)
                            self._count(perf_measurements=1)
        except QueueFullError:
            raise  # the *compile* was shed; surface it as such, not as a verdict
        except SimulationError as exc:
            error, error_kind = str(exc), "SimulationError"
        except Exception as exc:  # noqa: BLE001 - a verdict, not a crash
            error, error_kind = str(exc), type(exc).__name__
        self.engine.metrics.observe_spans(trace.spans)

        passed: bool | None = None
        if error is None:
            passed = all(
                part is None or part.get("passed", False)
                for part in (golden, cycle, rtl, perf)
            )
        result = VerifyResult(
            request=request,
            fingerprint=fingerprint,
            compile_fingerprint=target.fingerprint,
            passed=passed,
            golden=golden,
            cycle=cycle,
            rtl=rtl,
            perf=perf,
            error=error,
            error_kind=error_kind,
            source="verified",
            compile_source=compile_source,
            seconds=time.perf_counter() - started,
            spans=trace.spans,
        )
        self._count(verified=1)
        if error is None:
            self._remember(fingerprint, result)
        return result

    def _golden_check(self, request: VerifyRequest, schedule) -> dict:
        target = request.target
        reference = replay_frames(
            target.dag,
            target.image_width,
            target.image_height,
            frames=request.frames,
            seed=request.seed,
        )
        if schedule.dag is target.dag:
            compiled = reference
        else:
            compiled = replay_frames(
                schedule.dag,
                target.image_width,
                target.image_height,
                frames=request.frames,
                seed=request.seed,
            )
        # Every output stage counts; a missing or extra one leaves nothing
        # to compare (``None``) and fails the check.
        max_abs_error: float | None = 0.0
        if compiled.outputs.keys() != reference.outputs.keys():
            max_abs_error = None
        elif compiled is not reference:
            max_abs_error = max(
                float(np.max(np.abs(compiled.outputs[name] - stack)))
                for name, stack in reference.outputs.items()
            )
        expected_match = (
            None
            if request.expected_digest is None
            else reference.digest == request.expected_digest
        )
        passed = (
            max_abs_error is not None
            and max_abs_error <= request.tolerance
            and expected_match is not False
        )
        return {
            "passed": passed,
            "digest": reference.digest,
            "compiled_digest": compiled.digest,
            "max_abs_error": max_abs_error,
            "frames": request.frames,
            "seed": request.seed,
            "tolerance": request.tolerance,
            "expected_digest": request.expected_digest,
            "expected_match": expected_match,
        }

    def _rtl_check(self, request: VerifyRequest, schedule) -> dict:
        """Stream golden frames through the elaborated RTL; demand bit-exact.

        The reference replay draws the seeded frames, and the simulation
        streams the replay's own input stacks, so they are drawn once.
        """
        from repro.rtl.generator import generate_verilog
        from repro.rtl.sim import (
            check_external_syntax,
            elaborate_design,
            external_simulator,
            simulate_design,
        )

        reference = replay_frames(
            schedule.dag,
            schedule.image_width,
            schedule.image_height,
            frames=request.frames,
            seed=request.seed,
        )
        digest = reference.digest
        inputs = {
            stage.name: reference.result.images[stage.name]
            for stage in schedule.dag.input_stages()
        }
        del reference  # free the replay's stage images before the simulation
        source = generate_verilog(schedule)
        design = elaborate_design(source, schedule.dag)
        simulated = simulate_design(design, schedule, inputs)
        expected_match = (
            None if request.expected_digest is None else digest == request.expected_digest
        )
        payload = {
            "passed": simulated.digest == digest and expected_match is not False,
            "digest": digest,
            "rtl_digest": simulated.digest,
            "frames": request.frames,
            "seed": request.seed,
            "expected_digest": request.expected_digest,
            "expected_match": expected_match,
            "cycles_per_frame": simulated.cycles_per_frame,
            "external": None,
        }
        tool = external_simulator()
        if tool is not None:
            external = check_external_syntax(source, tool)
            payload["external"] = external
            if external["ok"] is False:
                payload["passed"] = False
        return payload

    def _perf_check(self, schedule) -> dict:
        """Measure achieved cycles/frame from the elaborated RTL vs the bound."""
        from repro.rtl.generator import generate_verilog
        from repro.rtl.sim import elaborate_design, measure_performance

        design = elaborate_design(generate_verilog(schedule), schedule.dag)
        payload = measure_performance(
            design,
            schedule.image_height,
            bound_cycles=schedule.end_to_end_latency_cycles,
        )
        payload["generator"] = schedule.generator
        return payload

    # ------------------------------------------------------------- the cache
    def _payload_of(self, result: VerifyResult) -> dict:
        return {
            "verify_version": VERIFY_FORMAT_VERSION,
            "check": result.request.check,
            "compile_fingerprint": result.compile_fingerprint,
            "passed": result.passed,
            "golden": result.golden,
            "cycle": result.cycle,
            "rtl": result.rtl,
            "perf": result.perf,
        }

    def _remember(self, fingerprint: str, result: VerifyResult) -> None:
        payload = self._payload_of(result)
        with self._lock:
            self._verdicts[fingerprint] = payload
            self._verdicts.move_to_end(fingerprint)
            while len(self._verdicts) > self.max_entries:
                self._verdicts.popitem(last=False)
        store = self.engine.cache.store
        if store is not None:
            store.save(fingerprint, payload)

    def _recall(self, fingerprint: str) -> dict | None:
        """The memory tier's verdict, marked most recent (lock held)."""
        payload = self._verdicts.get(fingerprint)
        if payload is not None:
            self._verdicts.move_to_end(fingerprint)
        return payload

    def _lookup(self, fingerprint: str) -> tuple[dict, str] | None:
        with self._lock:
            payload = self._recall(fingerprint)
        if payload is not None:
            return payload, "memory"
        store = self.engine.cache.store
        if store is not None:
            payload = store.load(fingerprint)
            if (
                isinstance(payload, dict)
                and payload.get("verify_version") == VERIFY_FORMAT_VERSION
            ):
                with self._lock:
                    self._verdicts[fingerprint] = payload
                    while len(self._verdicts) > self.max_entries:
                        self._verdicts.popitem(last=False)
                return payload, "disk"
        return None

    def _from_payload(
        self, request: VerifyRequest, fingerprint: str, payload: dict, tier: str
    ) -> VerifyResult:
        return VerifyResult(
            request=request,
            fingerprint=fingerprint,
            compile_fingerprint=payload.get("compile_fingerprint", ""),
            passed=payload.get("passed"),
            golden=payload.get("golden"),
            cycle=payload.get("cycle"),
            rtl=payload.get("rtl"),
            perf=payload.get("perf"),
            source=tier,
        )

    def _forget(self, fingerprint: str) -> None:
        with self._lock:
            self._inflight.pop(fingerprint, None)

    # ------------------------------------------------------------ accounting
    def _count(self, **deltas) -> None:
        with self._lock:
            for key, delta in deltas.items():
                self._counters[key] += delta

    def _count_outcome(self, result: VerifyResult) -> None:
        deltas: dict = {"seconds_total": result.seconds}
        if result.source == "memory":
            deltas["served_from_memory"] = 1
        elif result.source == "disk":
            deltas["served_from_disk"] = 1
        if result.error is not None:
            deltas["errors"] = 1
        elif result.passed:
            deltas["passed"] = 1
        else:
            deltas["failed"] = 1
        self._count(**deltas)

    def _finalize(self, result: VerifyResult) -> VerifyResult:
        if result.request.strict:
            if result.error_kind == "SimulationError":
                raise SimulationError(result.error or "verification failed")
            if result.passed is False:
                raise SimulationError(result.failure_summary())
        return result

    def stats(self) -> dict:
        """Counters for ``GET /v1/metrics`` (served under ``verify_*`` keys)."""
        with self._lock:
            stats = dict(self._counters)
            stats["cache_entries"] = len(self._verdicts)
            stats["seconds_total"] = round(stats["seconds_total"], 6)
        return stats

    def admission_stats(self) -> dict:
        """The verify admission queue's counters (zero-schema when unbounded)."""
        if self._admission is None:
            return {
                "max_pending": 0,
                "overflow": self.overflow,
                "queue_depth": 0,
                "inflight": 0,
                "admitted_total": 0,
                "rejected_total": 0,
                "blocked_total": 0,
                "queued_clients": 0,
            }
        return self._admission.stats()
