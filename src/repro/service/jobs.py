"""Typed job records and job execution for the compilation service.

Stability: public.

The engine's unit of work is a :class:`repro.api.CompileTarget`; a
:class:`CompileResult` carries the target it answered plus either the compiled
accelerator or a captured error, so that one infeasible design point never
aborts a batch or a DSE sweep.  :class:`BatchResult` aggregates a batch
submission with its cache statistics and wall-clock time.

:func:`execute_target` is the single place a job actually runs: it wraps
:func:`repro.core.compile_pipeline`, captures per-design-point failures, and
classifies the result source.  :func:`execute_wire_job` is its process-pool
twin — a module-level (picklable) task whose input and output are *wire
payloads* (:mod:`repro.service.wire`), never pickled closures, so the
``process`` executor backend ships plain dictionaries across the boundary and
stays immune to unpicklable DAG callbacks, monkeypatched modules, or
library-version skew in what a worker returns.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

from repro.api.target import CompileTarget
from repro.core.compiler import CompiledAccelerator, compile_pipeline
from repro.errors import ReproError
from repro.service.cache import CacheStats, CompileCache, DiskCacheStore
from repro.trace import Span, collect_spans, default_tracing


class CompileStatus(enum.Enum):
    """Terminal state of one compile job."""

    OK = "ok"
    ERROR = "error"


#: Where a result came from: ``"memory"``/``"disk"`` (cache tiers),
#: ``"solver"`` (at least one fresh generator run), ``"deduplicated"``
#: (shared with an identical in-flight request), or ``"rejected"`` (shed by
#: the engine's bounded admission queue — the job never ran).
SOURCE_DEDUPLICATED = "deduplicated"
SOURCE_REJECTED = "rejected"


def rejected_result(target: CompileTarget, reason: str) -> CompileResult:
    """An error-carrying result for a job the admission queue shed.

    Batch submissions report shed design points this way — in their slots,
    with ``source="rejected"`` and zero latency — so a saturated engine
    degrades item-by-item exactly like an infeasible design point does.
    """
    return CompileResult(
        target=target,
        fingerprint=target.fingerprint,
        error=reason,
        source=SOURCE_REJECTED,
        seconds=0.0,
    )


@dataclass
class CompileResult:
    """Outcome of one compile job, successful or not."""

    target: CompileTarget
    fingerprint: str = ""
    accelerator: CompiledAccelerator | None = None
    error: str | None = None
    source: str = "solver"
    seconds: float = 0.0
    #: Stage spans (:class:`repro.trace.Span`) recorded while the job ran;
    #: empty when tracing is disabled or the job never ran (rejected).
    spans: tuple[Span, ...] = ()

    @property
    def status(self) -> CompileStatus:
        return CompileStatus.OK if self.error is None else CompileStatus.ERROR

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def from_cache(self) -> bool:
        return self.source in ("memory", "disk")

    def unwrap(self) -> CompiledAccelerator:
        """The accelerator, or a :class:`ReproError` describing the failure."""
        if self.accelerator is None:
            raise ReproError(
                f"Compilation of {self.target.display_label!r} failed: {self.error}"
            )
        return self.accelerator


@dataclass
class BatchResult:
    """Results of one batch submission, in request order."""

    results: list[CompileResult]
    seconds: float = 0.0
    cache_stats: CacheStats | None = None

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def ok_results(self) -> list[CompileResult]:
        return [r for r in self.results if r.ok]

    @property
    def failures(self) -> list[CompileResult]:
        return [r for r in self.results if not r.ok]

    @property
    def accelerators(self) -> list[CompiledAccelerator]:
        """Accelerators of the successful jobs, in request order."""
        return [r.accelerator for r in self.results if r.accelerator is not None]

    def raise_on_error(self) -> "BatchResult":
        """Raise a :class:`ReproError` summarizing failures, if any."""
        failures = self.failures
        if failures:
            summary = "; ".join(
                f"{f.target.display_label!r}: {f.error}" for f in failures[:5]
            )
            more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
            raise ReproError(f"{len(failures)}/{len(self.results)} compile jobs failed: {summary}{more}")
        return self


# ---------------------------------------------------------------------------
# Job execution
# ---------------------------------------------------------------------------
def derive_source(accelerator: CompiledAccelerator) -> str:
    """Classify where a compiled design came from.

    A compile may consult the cache more than once (the auto-coalescing
    fallback runs two solves): the result counts as cached only when *every*
    consulted source was a cache tier, and as ``"disk"`` only when the disk
    tier was actually touched.
    """
    sources = accelerator.metadata.get("schedule_sources", ("solver",))
    if all(source in ("memory", "disk") for source in sources):
        return "disk" if "disk" in sources else "memory"
    return "solver"


def execute_target(
    target: CompileTarget,
    cache: CompileCache | None,
    fingerprint: str | None = None,
    *,
    tracing: bool | None = None,
) -> CompileResult:
    """Run one compile job, capturing failures instead of raising.

    This is the body every executor backend ultimately runs — on the calling
    thread (``inline``), on a pool thread (``thread``), or inside a worker
    process (``process``, via :func:`execute_wire_job`).  One bad design
    point yields an error-carrying :class:`CompileResult` so it can never
    kill a batch or a sweep.

    Stage spans recorded during the compile ride on ``result.spans``.
    ``tracing=None`` follows the ``REPRO_TRACE`` default — which worker
    processes inherit from the parent's environment.
    """
    fingerprint = fingerprint or target.fingerprint
    trace = collect_spans(enabled=default_tracing() if tracing is None else tracing)
    started = time.perf_counter()
    try:
        with trace:
            accelerator = compile_pipeline(target, cache=cache)
    except Exception as exc:
        return CompileResult(
            target=target,
            fingerprint=fingerprint,
            error=f"{type(exc).__name__}: {exc}",
            seconds=time.perf_counter() - started,
            spans=trace.spans,
        )
    return CompileResult(
        target=target,
        fingerprint=fingerprint,
        accelerator=accelerator,
        source=derive_source(accelerator),
        seconds=time.perf_counter() - started,
        spans=trace.spans,
    )


#: Per-worker-process compile caches, one per disk-volume configuration
#: (``(directory, max_bytes, max_age_seconds)``; directory ``None`` = one
#: memory-only cache shared by every engine without a disk store).
#: Module-level so they survive across the tasks one worker process serves.
_WORKER_CACHES: dict[tuple, CompileCache] = {}

#: Memory-tier LRU capacity of each worker-process cache.  Deliberately small:
#: the authoritative tiers are the parent engine's LRU and the shared disk
#: volume; this only short-circuits repeats landing on the same worker.
WORKER_CACHE_ENTRIES = 128


def _worker_cache(
    cache_dir: str | None,
    max_bytes: int | None = None,
    max_age_seconds: float | None = None,
) -> CompileCache:
    key = (cache_dir, max_bytes, max_age_seconds)
    cache = _WORKER_CACHES.get(key)
    if cache is None:
        store = (
            DiskCacheStore(
                cache_dir, max_bytes=max_bytes, max_age_seconds=max_age_seconds
            )
            if cache_dir
            else None
        )
        cache = CompileCache(max_entries=WORKER_CACHE_ENTRIES, store=store)
        _WORKER_CACHES[key] = cache
    return cache


def execute_wire_job(
    payload: dict,
    cache_dir: str | None = None,
    cache_max_bytes: int | None = None,
    cache_max_age_seconds: float | None = None,
) -> dict:
    """Process-pool task: wire-format target in, wire-format result out.

    Runs inside a ``ProcessPoolExecutor`` worker.  The target arrives as a
    :func:`repro.service.wire.target_to_wire` payload and the full result —
    schedule, line buffers, metadata, captured error — returns as a
    :func:`repro.service.wire.full_result_to_wire` payload, so nothing
    fragile is ever pickled across the process boundary.  ``cache_dir``
    points the worker at the engine's shared disk volume: workers persist
    what they solve there, and a design one process solved is loaded warm by
    every other process sharing the volume.  The GC bounds travel with it,
    so a ``max_bytes`` limit holds no matter which process does the saving.
    """
    from repro.service.wire import full_result_to_wire, target_from_wire

    target = target_from_wire(payload)
    result = execute_target(
        target, _worker_cache(cache_dir, cache_max_bytes, cache_max_age_seconds)
    )
    return full_result_to_wire(result)
