"""The compile engine: cached, deduplicated, parallel compilation service.

Stability: public.

:class:`CompileEngine` is the serving-layer entry point.  Its unit of work is
the :class:`repro.api.CompileTarget`; every submission path wraps
:func:`repro.core.compile_pipeline`:

* every generator run goes through a shared :class:`CompileCache`, so
  repeated targets (interactive clients, DSE sweeps, baseline comparisons)
  are answered without re-running anything.  The entry under a target's
  fingerprint is the schedule ``compile_pipeline`` returns for it, +LC
  targets included, so a warm compile is one lookup; a miss solves exactly
  as an uncached compile does, so what the engine serves for a target never
  depends on what its cache held before;
* identical in-flight targets are deduplicated — concurrent batches that
  contain the same design point trigger exactly one run (the in-flight
  table is a :class:`repro.service.admission.SingleFlight`);
* batch items run on the ``workers`` threads (``REPRO_WORKERS``) of the
  engine's :class:`repro.service.admission.JobQueue`, which its
  :class:`repro.service.verify.VerifyEngine` shares: HiGHS, which solves
  the systems the flow kernel defers, releases the GIL, so those solves
  overlap on multi-core hosts, and the pure-Python flow kernel that solves
  the rest takes about 1 ms;
* per-request latency and hit-rate metrics are recorded
  (:class:`repro.service.metrics.EngineMetrics`).

A single :meth:`CompileEngine.submit` (or the :meth:`CompileEngine.compile`
convenience wrapper) runs on the calling thread unless the queue is bounded.
Workers start lazily, so a cache-only engine costs nothing to construct.

Admission control
-----------------
``CompileEngine(max_pending=...)`` (or the ``REPRO_MAX_PENDING`` environment
variable) bounds the queue: at most ``max_pending`` jobs wait beyond the
free workers.  Beyond that a submission is shed with
:class:`repro.service.admission.QueueFullError` (batch submissions degrade
the shed items to error-carrying results with ``source="rejected"``
instead).  Every submission path accepts a ``client=`` identity; queued
work drains round-robin across identities, so one flooding client cannot
starve the rest.  Submits whose fingerprint the memory tier holds (+LC
targets too: their entry is the schedule the auto policy kept), and submits
from a worker, bypass the queue — admission control prices solver work, not
dictionary lookups.
"""

from __future__ import annotations

import os
import time
import weakref
from concurrent.futures import Future
from dataclasses import replace
from typing import Iterable

from repro.api.target import CompileTarget, require_target
from repro.core.compiler import CompiledAccelerator, compile_pipeline
from repro.service.admission import (
    JobQueue,
    QueueFullError,
    SingleFlight,
    default_max_pending,
    settle,
    validate_max_pending,
)
from repro.service.cache import CompileCache, DiskCacheStore
from repro.service.executor import (
    WORKERS_ENV_VAR,
    default_executor_name,
    validate_worker_count,
)
from repro.service.jobs import (
    SOURCE_DEDUPLICATED,
    BatchResult,
    CompileResult,
    rejected_result,
)
from repro.service.metrics import EngineMetrics, RequestTrace
from repro.trace import collect_spans, default_tracing


def default_worker_count() -> int:
    """Pool size used when the caller does not specify one.

    The ``REPRO_WORKERS`` environment variable, when set, takes precedence
    and must be a positive integer — ``0``, negatives and garbage raise
    :class:`ValueError` (they used to be ignored, which silently mis-sized
    production pools).
    """
    override = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if override:
        return validate_worker_count(override, source=WORKERS_ENV_VAR)
    return min(8, os.cpu_count() or 1)


class CompileEngine:
    """A compilation service instance: cache + job queue + metrics.

    Parameters
    ----------
    workers:
        Threads that run queued jobs (default:
        :func:`default_worker_count`, overridable via ``REPRO_WORKERS``).
    cache:
        A :class:`CompileCache` to share between engines; one is created when
        omitted.
    cache_dir:
        Convenience: when given (and ``cache`` is not), the created cache is
        backed by a :class:`DiskCacheStore` in this directory, so schedules
        persist across processes.
    max_cache_entries:
        LRU capacity of the created cache.
    max_pending:
        Bound on the jobs that wait beyond the free workers (default:
        ``REPRO_MAX_PENDING``, else unbounded).  A job beyond it is shed
        with :class:`repro.service.admission.QueueFullError` — the HTTP
        front maps it to 429 with ``Retry-After`` — and cold single submits
        queue under their ``client=`` identity instead of running on the
        caller's thread.
    tracing:
        Whether compiles record per-stage spans (:mod:`repro.trace`) onto
        their results and into the engine's stage histograms.  ``None``
        (default) follows the ``REPRO_TRACE`` environment variable.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        cache: CompileCache | None = None,
        cache_dir: str | os.PathLike | None = None,
        max_cache_entries: int = 512,
        max_pending: int | None = None,
        tracing: bool | None = None,
    ) -> None:
        if workers is not None:
            workers = validate_worker_count(workers)
        self.workers = workers or default_worker_count()
        if cache is None:
            store = DiskCacheStore(cache_dir) if cache_dir is not None else None
            cache = CompileCache(max_entries=max_cache_entries, store=store)
        self.cache = cache
        self.tracing = default_tracing() if tracing is None else bool(tracing)
        self.metrics = metrics = EngineMetrics()
        self.max_pending = (
            default_max_pending()
            if max_pending is None
            else validate_max_pending(max_pending)
        )
        self._flight = SingleFlight()
        # Retry-After for shed jobs: roughly one mean solve, so clients back
        # off in proportion to how expensive this workload is.  The queue
        # holds no reference to the engine, so an engine dropped without
        # shutdown() is collected, and its finalizer lets the idle workers
        # exit.
        self._queue = JobQueue(
            self.workers,
            max_pending=self.max_pending,
            retry_after=lambda: metrics.mean_seconds or 1.0,
        )
        weakref.finalize(self, self._queue.shutdown, False)

    @property
    def executor_name(self) -> str:
        """Name of the execution backend: always ``thread``."""
        return default_executor_name()

    # ------------------------------------------------------------- lifecycle
    def __enter__(self) -> "CompileEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True, *, cancel_pending: bool = False) -> None:
        """Stop the workers once the queue runs out; ``wait`` joins them.

        ``cancel_pending=True`` first cancels every queued job: the
        ``submit`` or ``submit_batch`` waiting on one raises
        ``CancelledError``.  The cache and its disk store stay usable, and
        the next queued job starts new workers.
        """
        self._queue.shutdown(wait, cancel_pending=cancel_pending)

    # ------------------------------------------------------------ single job
    def compile(self, target: CompileTarget) -> CompiledAccelerator:
        """Compile one target through the cache and return the accelerator.

        Shorthand for ``engine.submit(target).unwrap()``.
        """
        return self.submit(target).unwrap()

    def submit(
        self, target: CompileTarget, *, client: str = ""
    ) -> CompileResult:
        """Run one target synchronously, via the cache.

        The submit takes part in the engine-wide in-flight deduplication: if
        an identical fingerprint is already being solved (by a batch or
        another thread's submit), this call waits for that solve and
        reports ``source="deduplicated"`` instead of running a second one;
        otherwise it publishes its own future so concurrent submitters of
        the same target join it.

        The job runs on the calling thread when the engine is unbounded,
        when the memory tier holds its fingerprint, or when the caller is
        one of the engine's workers (a verify body, say).  Otherwise it
        queues under the ``client=`` identity, and a saturated engine sheds
        it with :class:`repro.service.admission.QueueFullError`.
        """
        target = require_target(target)
        fingerprint = target.fingerprint
        if (
            self.max_pending is None
            or self._queue.on_worker()
            or fingerprint in self.cache
        ):
            _, future, owner = self._flight.claim(fingerprint)
            if owner:
                settle(future, lambda: self._execute(target, fingerprint))
        else:
            future, owner = self._enqueue(target, fingerprint, {}, client=client)
        return self._collect(target, self._queue.wait(future).result(), owner)

    # ----------------------------------------------------------------- batch
    def submit_batch(
        self,
        requests: Iterable[CompileTarget],
        *,
        client: str = "",
    ) -> BatchResult:
        """Compile many targets concurrently; results come back in order.

        Targets with identical fingerprints — within the batch or already in
        flight from a concurrent batch — share a single execution; the
        sharers are reported with ``source="deduplicated"``.  A failing
        target yields an error-carrying :class:`CompileResult` instead of
        raising, so one infeasible design point cannot kill a sweep.  Under a
        full admission queue, excess items degrade the same way: error
        results with ``source="rejected"``, never a raised batch.
        """
        targets = [require_target(request) for request in requests]
        started = time.perf_counter()
        # Batch-local duplicates always share one execution (deterministic,
        # immune to the owner finishing before the twin is enqueued).
        local: dict[str, Future] = {}
        slots = [
            (target, *self._enqueue(target, target.fingerprint, local, client=client))
            for target in targets
        ]
        outcomes = [
            self._queue.wait(future).exception() or future.result()
            for _, future, _ in slots
        ]
        # A shed item, or a dedup sharer of one, becomes an error result with
        # source="rejected"; any other raised outcome (cancellation, a fatal
        # error) propagates.
        results = []
        for (target, _, owner), outcome in zip(slots, outcomes):
            if isinstance(outcome, QueueFullError):
                result = rejected_result(target, str(outcome))
                self.metrics.record(self._trace(result))
            elif isinstance(outcome, BaseException):
                raise outcome
            else:
                result = self._collect(target, outcome, owner)
            results.append(result)
        self.metrics.record_batch()
        return BatchResult(
            results=results,
            seconds=time.perf_counter() - started,
            cache_stats=self.cache.stats.snapshot(),
        )

    # ------------------------------------------------------------- internals
    def _enqueue(
        self,
        target: CompileTarget,
        fingerprint: str,
        local: dict[str, Future],
        *,
        client: str = "",
    ) -> tuple[Future, bool]:
        """Join or own one target's flight, deduplicating against ``local``
        first, and queue it when this call owns it.  Returns
        ``(future, owner)``; a shed settles the future with the
        :class:`QueueFullError`, so dedup joiners observe the same rejection.
        """
        future = local.get(fingerprint)
        if future is not None:
            return future, False
        _, future, owner = self._flight.claim(fingerprint)
        if owner:
            self._queue.submit(
                future,
                lambda: self._execute(target, fingerprint),
                client=client,
                key=fingerprint,
            )
        local[fingerprint] = future
        return future, owner

    def _collect(
        self, target: CompileTarget, outcome: CompileResult, owner: bool
    ) -> CompileResult:
        """Finalize one job: relabel dedup sharers, record metrics."""
        if owner:
            result = outcome
            # Stage histograms aggregate each executed job exactly once:
            # dedup sharers keep the owner's spans on their result (useful
            # for per-request tracing) but must not double-count them.
            if result.spans:
                self.metrics.observe_spans(result.spans)
        else:
            result = replace(
                outcome, target=target, source=SOURCE_DEDUPLICATED, seconds=0.0
            )
        self.metrics.record(self._trace(result))
        return result

    def _execute(self, target: CompileTarget, fingerprint: str) -> CompileResult:
        # The job body a worker runs, and a single submit on its caller's
        # thread.  It calls the module-level compile_pipeline, which stays
        # the single patch point for instrumenting solves.
        trace = collect_spans(enabled=self.tracing)
        started = time.perf_counter()
        try:
            with trace:
                accelerator = compile_pipeline(target, cache=self.cache)
        except Exception as exc:  # one bad design point must not kill a batch
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
            source=accelerator.source,
            seconds=time.perf_counter() - started,
            spans=trace.spans,
        )

    def _trace(self, result: CompileResult) -> RequestTrace:
        return RequestTrace(
            label=result.target.display_label,
            fingerprint=result.fingerprint,
            source=result.source,
            seconds=result.seconds,
            ok=result.ok,
        )

    # ------------------------------------------------------------ inspection
    @property
    def hit_rate(self) -> float:
        return self.cache.stats.hit_rate

    def executor_stats(self) -> dict:
        """The ``executor`` name and ``workers``, republished on ``GET /v1/metrics``."""
        return {"executor": self.executor_name, "workers": self.workers}

    def admission_stats(self) -> dict:
        """The job queue's counters (``queue_depth``, ``rejected_total``, ...).

        They cover compiles and verifies, bounded or not; ``max_pending`` is
        ``None`` when unbounded.
        """
        return self._queue.stats()

    def describe(self) -> str:
        stats = self.cache.stats
        admission = (
            f", max_pending={self.max_pending}" if self.max_pending is not None else ""
        )
        return (
            f"CompileEngine(executor={self.executor_name}, workers={self.workers}"
            f"{admission}, cache={len(self.cache)}/{self.cache.max_entries} entries, "
            f"hits={stats.hits}, misses={stats.misses}, hit_rate={stats.hit_rate:.1%})"
        )
