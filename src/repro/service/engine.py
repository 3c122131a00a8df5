"""The compile engine: cached, deduplicated, parallel compilation service.

Stability: public.

:class:`CompileEngine` is the serving-layer entry point.  Its unit of work is
the :class:`repro.api.CompileTarget`; every submission path wraps
:func:`repro.core.compile_pipeline`:

* every generator run goes through a shared :class:`CompileCache`, so
  repeated targets (interactive clients, DSE sweeps, the auto-coalescing
  fallback, baseline comparisons) are answered without re-running anything;
  a miss solves exactly as an uncached compile does, so what the engine
  serves for a target never depends on what its cache held before;
* identical in-flight targets are deduplicated — concurrent batches that
  contain the same design point trigger exactly one run (the in-flight
  table is a :class:`repro.service.admission.SingleFlight`, the kernel the
  verify engine runs on too);
* batches fan out over a pluggable :class:`repro.service.executor`
  backend — ``inline`` (deterministic, for tests) or ``thread`` (the
  default; HiGHS, which solves the systems the flow kernel defers,
  releases the GIL, so those solves overlap on multi-core hosts, and the
  pure-Python flow kernel that solves the rest takes about 1 ms) —
  selected via
  ``CompileEngine(executor=...)`` or the ``REPRO_EXECUTOR`` environment
  variable;
* per-request latency and hit-rate metrics are recorded
  (:class:`repro.service.metrics.EngineMetrics`).

Single targets submitted through :meth:`CompileEngine.submit` (or the
:meth:`CompileEngine.compile` convenience wrapper) run inline on the calling
thread — pools are created lazily, so a cache-only engine costs nothing to
construct.

Admission control
-----------------
``CompileEngine(max_pending=...)`` (or the ``REPRO_MAX_PENDING`` environment
variable) inserts a bounded :class:`repro.service.admission.AdmissionQueue`
between the dedup table and the executor backend: at most ``workers`` jobs
are dispatched at a time and at most ``max_pending`` more may wait.  Beyond
that a submission is shed with
:class:`repro.service.admission.QueueFullError` (batch submissions degrade
the shed items to error-carrying results with ``source="rejected"``
instead).  Every submission path accepts a ``client=`` identity; pending
work drains round-robin across identities, so one flooding client cannot
starve the rest.  Cache-answerable submits bypass the queue entirely —
admission control prices solver work, not dictionary lookups.

Async front
-----------
For services that await compile jobs instead of dedicating a thread per
request, the engine exposes an :mod:`asyncio` front over the same worker
pool: :meth:`submit_async` and :meth:`submit_batch_async` wrap the pool's
futures with :func:`asyncio.wrap_future`, and the engine is an async context
manager::

    async with CompileEngine(workers=4) as engine:
        batch = await engine.submit_batch_async(targets)

Results are identical to the synchronous paths for the same targets, and the
cache, dedup and metrics machinery is shared — an async client and a sync
batch racing on the same design point still trigger exactly one solve.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import Future
from dataclasses import replace
from typing import Iterable

from repro.api.target import CompileTarget, require_target
from repro.core.compiler import CompiledAccelerator, compile_pipeline
from repro.service.admission import (
    QueueFullError,
    SingleFlight,
    default_max_pending,
    validate_max_pending,
)
from repro.service.cache import CompileCache, DiskCacheStore
from repro.service.executor import (
    WORKERS_ENV_VAR,
    ExecutorBackend,
    resolve_executor,
    validate_worker_count,
)
from repro.service.jobs import (
    SOURCE_DEDUPLICATED,
    BatchResult,
    CompileResult,
    derive_source,
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
    """A compilation service instance: cache + executor backend + metrics.

    Parameters
    ----------
    workers:
        Pool size for batch submissions (default:
        :func:`default_worker_count`, overridable via ``REPRO_WORKERS``).
    executor:
        Execution backend for batch/async fan-out: ``"inline"``,
        ``"thread"`` (default), or a ready-made
        :class:`repro.service.executor.ExecutorBackend` instance (which may
        be shared between engines).  ``None`` consults the
        ``REPRO_EXECUTOR`` environment variable.
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
        Bound on the number of admitted-but-undispatched jobs (default:
        ``REPRO_MAX_PENDING``, else unbounded).  Enables the admission queue:
        submissions beyond ``workers`` in-flight + ``max_pending`` waiting
        are shed with :class:`repro.service.admission.QueueFullError` — the
        HTTP front maps it to 429 with ``Retry-After`` — and pending work
        drains round-robin across ``client=`` identities.
    tracing:
        Whether compiles record per-stage spans (:mod:`repro.trace`) onto
        their results and into the engine's stage histograms.  ``None``
        (default) follows the ``REPRO_TRACE`` environment variable.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        executor: str | ExecutorBackend | None = None,
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
        self.metrics = EngineMetrics()
        self.max_pending = (
            default_max_pending()
            if max_pending is None
            else validate_max_pending(max_pending)
        )
        # Retry-After for shed jobs: roughly one mean solve, so clients back
        # off in proportion to how expensive this workload is.
        self._flight = SingleFlight(
            resolve_executor(executor, workers=self.workers),
            max_pending=self.max_pending,
            retry_after=lambda: self.metrics.mean_seconds or 1.0,
        )

    @property
    def executor_name(self) -> str:
        """Name of the active execution backend (``inline``/``thread``)."""
        return self._flight.executor.name

    # ------------------------------------------------------------- lifecycle
    def __enter__(self) -> "CompileEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    async def __aenter__(self) -> "CompileEngine":
        return self

    async def __aexit__(self, *exc_info) -> None:
        # Pool shutdown joins worker threads; keep that off the event loop.
        await asyncio.get_running_loop().run_in_executor(None, self.shutdown)

    def shutdown(self, wait: bool = True, *, cancel_pending: bool = False) -> None:
        """Stop the executor backend (the cache and its disk store stay usable).

        ``cancel_pending=True`` additionally cancels queued-but-unstarted
        jobs — both those waiting in the admission queue (dropped before
        they ever reach a backend, so they cannot be pumped into a recreated
        pool) and those queued inside the backend: their futures (and any
        :func:`asyncio.wrap_future` wrappers awaiting them) resolve with
        ``CancelledError``.  The engine stays usable — the next batch
        submission transparently recreates the pool.
        """
        self._flight.shutdown(wait, cancel_pending=cancel_pending)

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

        Without an admission queue the job runs on the calling thread.
        Either way the submit takes part in the engine-wide in-flight
        deduplication: if an identical fingerprint is already being solved
        (by a batch, an async client, or another thread's submit), this call
        waits for that solve and reports ``source="deduplicated"`` instead of
        running a second one; otherwise it publishes its own future so
        concurrent submitters of the same target join it.

        When the engine has a bounded admission queue
        (``max_pending=``/``REPRO_MAX_PENDING``), cold submits route through
        it under the ``client=`` identity: a saturated engine sheds them with
        :class:`repro.service.admission.QueueFullError`, while
        cache-answerable submits stay inline.
        """
        target = require_target(target)
        fingerprint = target.fingerprint
        if self._flight.queue is not None and not self._answerable_inline(
            target, fingerprint
        ):
            future, owner = self._enqueue(target, fingerprint, {}, client=client)
            return self._collect(target, future.result(), owner)
        return self._submit_inline(target, fingerprint)

    def _submit_inline(self, target: CompileTarget, fingerprint: str) -> CompileResult:
        """Join the target's flight, or own it and run it on this thread.

        A verify body compiles through here: it already holds a dispatch
        slot on the backend it shares with compiles, and a compile queued
        behind that slot would never start once verify bodies fill the pool.
        """
        _, future, owner = self._flight.claim(fingerprint)
        if not owner:
            return self._collect(target, future.result(), owner=False)
        try:
            result = self._execute(target, fingerprint)
        except BaseException as exc:
            # _execute captures compile errors in the result; anything that
            # still escapes is fatal — settle the flight with it, so joiners
            # never re-run the solve obliviously.
            future.set_exception(exc)
            raise
        future.set_result(result)
        return self._collect(target, result, owner=True)

    async def submit_async(
        self, target: CompileTarget, *, client: str = ""
    ) -> CompileResult:
        """Await one target on the worker pool without blocking the event loop.

        The result is identical to :meth:`submit` for the same target; the
        job shares the engine's cache, in-flight dedup and admission queue,
        so awaiting a design point that a concurrent batch is already solving
        costs nothing extra — and a saturated engine sheds exactly as it
        would for a synchronous submitter.
        """
        target = require_target(target)
        future, owner = self._enqueue(target, target.fingerprint, {}, client=client)
        outcome: CompileResult = await asyncio.wrap_future(future)
        return self._collect(target, outcome, owner)

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
        slots = self._enqueue_all(targets, client=client)
        outcomes = [future.exception() or future.result() for _, future, _ in slots]
        return self._finish_batch(slots, outcomes, started)

    async def submit_batch_async(
        self,
        requests: Iterable[CompileTarget],
        *,
        client: str = "",
    ) -> BatchResult:
        """Async twin of :meth:`submit_batch`: await a whole batch at once.

        Jobs fan out over the same worker pool, dedup and admission machinery
        as the synchronous path, and the returned :class:`BatchResult` is
        equal to what :meth:`submit_batch` would produce for the same
        targets.  If the engine is shut down with ``cancel_pending=True``
        while the batch is queued, the await raises
        :class:`asyncio.CancelledError`.
        """
        targets = [require_target(request) for request in requests]
        started = time.perf_counter()
        slots = self._enqueue_all(targets, client=client)
        outcomes = await asyncio.gather(
            *(asyncio.wrap_future(future) for _, future, _ in slots),
            return_exceptions=True,
        )
        return self._finish_batch(slots, outcomes, started)

    # ------------------------------------------------------------- internals
    def _answerable_inline(self, target: CompileTarget, fingerprint: str) -> bool:
        """Whether a submit can be served from the memory tier alone.

        Gated submits use it to bypass the admission queue: when every
        schedule the compile would consult is already in the memory LRU,
        running it inline is a dictionary lookup, not solver work.
        """
        options = target.options
        if (
            target.is_imagen
            and options.coalescing
            and options.coalescing_policy == "auto"
        ):
            # The auto fallback consults two entries: the coalesced solve and
            # the plain one it compares against.
            plain = target.with_options(coalescing=False)
            return fingerprint in self.cache and plain.fingerprint in self.cache
        return fingerprint in self.cache

    def _enqueue(
        self,
        target: CompileTarget,
        fingerprint: str,
        local: dict[str, Future],
        *,
        client: str = "",
    ) -> tuple[Future, bool]:
        """Join or own one target's flight, deduplicating against ``local``
        first, and dispatch it when this call owns it.  Returns
        ``(future, owner)``; a shed settles the future with the
        :class:`QueueFullError`, so dedup joiners observe the same rejection.
        """
        future = local.get(fingerprint)
        if future is not None:
            return future, False
        _, future, owner = self._flight.claim(fingerprint)
        if owner:
            self._flight.dispatch(
                future, self._execute, target, fingerprint, client=client
            )
        local[fingerprint] = future
        return future, owner

    def _enqueue_all(
        self, targets: list[CompileTarget], *, client: str = ""
    ) -> list[tuple[CompileTarget, Future, bool]]:
        # Batch-local duplicates always share one execution (deterministic,
        # immune to the owner finishing before the twin is enqueued).
        local: dict[str, Future] = {}
        return [
            (target, *self._enqueue(target, target.fingerprint, local, client=client))
            for target in targets
        ]

    def _finish_batch(
        self,
        slots: list[tuple[CompileTarget, Future, bool]],
        outcomes: list,
        started: float,
    ) -> BatchResult:
        """Finalize settled batch slots in order.  A shed item, or a dedup
        sharer of one, becomes an error result with ``source="rejected"``
        rather than killing the batch; any other raised outcome (cancellation,
        a fatal error) propagates."""
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
        # The job body every backend runs.  It calls the module-level
        # compile_pipeline, which stays the single patch point for
        # instrumenting solves.
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
            source=derive_source(accelerator),
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
        """Executor-backend snapshot (``executor`` name and ``workers``).

        Republished on ``GET /v1/metrics``.
        """
        return self._flight.executor.stats()

    def admission_stats(self) -> dict:
        """Admission-queue snapshot (``queue_depth``, ``rejected_total``, ...).

        Engines without a bounded queue report the same schema with zero
        counters, so metrics consumers never branch on configuration.
        """
        return self._flight.admission_stats()

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
