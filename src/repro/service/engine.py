"""The compile engine: cached, deduplicated, parallel compilation service.

Stability: public.

:class:`CompileEngine` is the serving-layer entry point.  Its unit of work is
the :class:`repro.api.CompileTarget`; every submission path wraps
:func:`repro.core.compile_pipeline`:

* every generator run goes through a shared :class:`CompileCache`, so
  repeated targets (interactive clients, DSE sweeps, the auto-coalescing
  fallback, baseline comparisons) are answered without re-running anything;
  on a miss the cache still helps: its nearest same-DAG entry
  (:meth:`CompileCache.fetch_neighbor`) warm-starts the scheduling ILP,
  which certifies most resolution/option neighbors outright and seeds the
  branch-and-bound otherwise (``ilp_warm_*`` counters on ``/v1/metrics``,
  ``neighbor_*`` on ``/v1/cache/stats``);
* identical in-flight targets are deduplicated — concurrent batches that
  contain the same design point trigger exactly one run;
* batches fan out over a pluggable :class:`repro.service.executor`
  backend — ``inline`` (deterministic, for tests) or ``thread`` (the
  default; the HiGHS backend releases the GIL, so independent solves
  overlap on multi-core hosts) — selected via
  ``CompileEngine(executor=...)`` or the ``REPRO_EXECUTOR`` environment
  variable;
* per-request latency and hit-rate metrics are recorded
  (:class:`repro.service.metrics.EngineMetrics`).

Single targets submitted through :meth:`CompileEngine.submit` (or the
:meth:`CompileEngine.compile` convenience wrapper) run inline on the calling
thread — pools are created lazily, so a cache-only engine costs nothing to
construct.

Speculative pre-warming
-----------------------
``CompileEngine(prewarm=True)`` turns each single-target compile into a
forecast: the engine background-submits the same design point at the other
evaluation resolutions (320p/1080p by default) and with the coalescing flag
toggled, so an interactive client stepping through the paper's design axes
finds every next request already cached.  The in-flight dedup table makes
speculation free when the client races it to the same fingerprint, and the
first resolution solved warm-starts the speculative siblings through the
cache's neighbor lookup.

Admission control
-----------------
``CompileEngine(max_pending=...)`` (or the ``REPRO_MAX_PENDING`` environment
variable) inserts a bounded :class:`repro.service.admission.AdmissionQueue`
between the dedup table and the executor backend: at most ``workers`` jobs
are dispatched at a time and at most ``max_pending`` more may wait.  The
``overflow`` policy decides what happens beyond that — ``"shed"`` raises
:class:`repro.service.admission.QueueFullError` (batch submissions degrade
the shed items to error-carrying results with ``source="rejected"`` instead)
while ``"block"`` applies backpressure to the submitter.  Every submission
path accepts a ``client=`` identity; pending work drains round-robin across
identities, so one flooding client cannot starve the rest.  Cache-answerable
submits bypass the queue entirely — admission control prices solver work,
not dictionary lookups.

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
import threading
import time
from concurrent.futures import CancelledError, Future
from dataclasses import replace
from typing import Callable, Iterable, Sequence

from repro.api.target import CompileTarget, require_target
from repro.core.compiler import CompiledAccelerator, compile_pipeline
from repro.service.admission import (
    AdmissionQueue,
    QueueFullError,
    default_max_pending,
    validate_max_pending,
)
from repro.service.cache import CompileCache, DiskCacheStore
from repro.service.events import emit_event
from repro.service.executor import (
    WORKERS_ENV_VAR,
    ExecutorBackend,
    relay_future,
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

#: Resolutions speculatively pre-warmed by ``CompileEngine(prewarm=True)``:
#: the paper's two evaluation sizes (320p and 1080p).
PREWARM_RESOLUTIONS: tuple[tuple[int, int], ...] = ((480, 320), (1920, 1080))


async def _resolved(value):
    """An already-settled awaitable (gather alignment for preset batch slots)."""
    return value


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
    prewarm:
        Opt-in speculative pre-warming: each single-target compile
        background-submits the target at the other ``prewarm_resolutions``
        and with the coalescing flag toggled (see the module docstring).
    prewarm_resolutions:
        The resolutions speculation covers (default: the paper's 320p/1080p
        evaluation sizes).
    max_pending:
        Bound on the number of admitted-but-undispatched jobs (default:
        ``REPRO_MAX_PENDING``, else unbounded).  Enables the admission queue:
        submissions beyond ``workers`` in-flight + ``max_pending`` waiting
        follow the ``overflow`` policy, and pending work drains round-robin
        across ``client=`` identities.
    overflow:
        What a full queue does to new submissions: ``"shed"`` (default)
        raises :class:`repro.service.admission.QueueFullError` — the HTTP
        front maps it to 429 with ``Retry-After`` — while ``"block"`` makes
        the submitter wait for space.
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
        prewarm: bool = False,
        prewarm_resolutions: Sequence[tuple[int, int]] = PREWARM_RESOLUTIONS,
        max_pending: int | None = None,
        overflow: str = "shed",
        tracing: bool | None = None,
    ) -> None:
        if workers is not None:
            workers = validate_worker_count(workers)
        self.workers = workers or default_worker_count()
        if cache is None:
            store = DiskCacheStore(cache_dir) if cache_dir is not None else None
            cache = CompileCache(max_entries=max_cache_entries, store=store)
        self.cache = cache
        self._executor = resolve_executor(executor, workers=self.workers)
        self.prewarm = prewarm
        self.prewarm_resolutions = tuple(prewarm_resolutions)
        self.tracing = default_tracing() if tracing is None else bool(tracing)
        self.metrics = EngineMetrics()
        if max_pending is None:
            max_pending = default_max_pending()
        else:
            max_pending = validate_max_pending(max_pending)
        self.max_pending = max_pending
        self.overflow = overflow
        if max_pending is not None:
            # Retry-After for shed jobs: roughly one mean solve, so clients
            # back off in proportion to how expensive this workload is.  The
            # dispatch width follows the *backend's* fleet (a ready-made
            # ExecutorBackend instance may size itself differently from the
            # engine default).
            self._admission: AdmissionQueue | None = AdmissionQueue(
                self._executor.workers,
                max_pending=max_pending,
                policy=overflow,
                retry_after=lambda: self.metrics.mean_seconds or 1.0,
            )
        else:
            if overflow not in ("shed", "block"):
                raise ValueError(f"overflow must be 'shed' or 'block', got {overflow!r}")
            self._admission = None
        self._inflight: dict[str, Future] = {}
        self._prewarm_pending: set[Future] = set()
        self._lock = threading.Lock()

    @property
    def executor_name(self) -> str:
        """Name of the active execution backend (``inline``/``thread``)."""
        return self._executor.name

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
        if cancel_pending and self._admission is not None:
            self._admission.cancel_pending()
        self._executor.shutdown(wait, cancel_pending=cancel_pending)

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
        :class:`repro.service.admission.QueueFullError` (or blocks, per the
        ``overflow`` policy) while cache-answerable submits stay inline.
        """
        target = require_target(target)
        fingerprint = target.fingerprint
        if self._admission is not None and not self._answerable_inline(
            target, fingerprint
        ):
            future, owner = self._enqueue(target, fingerprint, {}, client=client)
            outcome: CompileResult = future.result()
            self._speculate(target)
            return self._collect(target, future=None, outcome=outcome, owner=owner)
        future: Future = Future()
        # Mark the future running *before* publishing it: a joiner whose
        # asyncio wrapper gets cancelled would otherwise cancel() the pending
        # future and make our set_result() below raise InvalidStateError.
        future.set_running_or_notify_cancel()
        with self._lock:
            existing = self._inflight.get(fingerprint)
            if existing is None:
                self._inflight[fingerprint] = future
        if existing is not None:
            return self._collect(target, future=existing, outcome=None, owner=False)
        try:
            result = self._execute(target, fingerprint)
        except BaseException as exc:
            # _execute captures compile errors in the result; anything that
            # still escapes is fatal — propagate it to waiters before
            # unpublishing, so they never re-run the solve obliviously.
            future.set_exception(exc)
            self._clear_inflight(fingerprint)
            raise
        future.set_result(result)
        self._clear_inflight(fingerprint)
        self._speculate(target)
        return self._collect(target, future=None, outcome=result, owner=True)

    async def submit_async(
        self, target: CompileTarget, *, client: str = ""
    ) -> CompileResult:
        """Await one target on the worker pool without blocking the event loop.

        The result is identical to :meth:`submit` for the same target; the
        job shares the engine's cache, in-flight dedup and admission queue,
        so awaiting a design point that a concurrent batch is already solving
        costs nothing extra — and a saturated engine sheds or blocks exactly
        as it would for a synchronous submitter.
        """
        target = require_target(target)
        future, owner = await self._enqueue_off_loop(
            lambda: self._enqueue(target, target.fingerprint, {}, client=client)
        )
        outcome: CompileResult = await asyncio.wrap_future(future)
        self._speculate(target)
        return self._collect(target, future=None, outcome=outcome, owner=owner)

    async def _enqueue_off_loop(self, enqueue: "Callable[[], object]"):
        """Run an enqueue, keeping blocking admission off the event loop.

        Under ``overflow="block"`` a full queue makes the enqueue wait on a
        condition variable for up to a whole solve; done inline in a
        coroutine that would freeze every other task on the loop, so it is
        offloaded to the default thread pool.  The shed policy never blocks
        (it raises immediately), so the cheap direct call stays.
        """
        if self._admission is not None and self._admission.policy == "block":
            return await asyncio.get_running_loop().run_in_executor(None, enqueue)
        return enqueue()

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
        full admission queue with the shed policy, excess items degrade the
        same way: error results with ``source="rejected"``, never a raised
        batch.
        """
        targets = [require_target(request) for request in requests]
        started = time.perf_counter()
        slots = self._enqueue_all(targets, client=client)
        results = []
        for target, future, owner, preset in slots:
            if preset is not None:
                results.append(self._reject(preset))
                continue
            try:
                results.append(
                    self._collect(target, future=future, outcome=None, owner=owner)
                )
            except QueueFullError as exc:
                # A dedup sharer whose owner was shed: report the shed, don't
                # kill the batch.
                results.append(self._reject(rejected_result(target, str(exc))))
        self.metrics.record_batch()
        return BatchResult(
            results=results,
            seconds=time.perf_counter() - started,
            cache_stats=self.cache.stats.snapshot(),
        )

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
        slots = await self._enqueue_off_loop(
            lambda: self._enqueue_all(targets, client=client)
        )
        outcomes = await asyncio.gather(
            *(
                asyncio.wrap_future(future) if future is not None else _resolved(preset)
                for _, future, _, preset in slots
            ),
            return_exceptions=True,
        )
        results = []
        for (target, future, owner, preset), outcome in zip(slots, outcomes):
            if preset is not None:
                results.append(self._reject(preset))
                continue
            if isinstance(outcome, QueueFullError):
                results.append(self._reject(rejected_result(target, str(outcome))))
                continue
            if isinstance(outcome, BaseException):
                raise outcome  # cancellation and fatal errors keep propagating
            results.append(
                self._collect(target, future=None, outcome=outcome, owner=owner)
            )
        self.metrics.record_batch()
        return BatchResult(
            results=results,
            seconds=time.perf_counter() - started,
            cache_stats=self.cache.stats.snapshot(),
        )

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
        gate: bool = True,
    ) -> tuple[Future, bool]:
        """Queue one target on the executor backend, deduplicating against
        ``local`` and the engine-wide in-flight table.  Returns
        ``(future, owner)``.

        The published future is a placeholder the backend's future relays
        into, so the actual ``executor.submit`` happens *outside* the engine
        lock — the inline backend runs whole compiles in ``submit``, which
        must not stall every other engine operation.  (Marked running before
        publication for the same cancel-proofing as inline submits.)

        With an admission queue configured, the dispatch is routed through it
        under the ``client`` identity instead of hitting the executor
        directly; a shed job settles the published placeholder with the
        :class:`QueueFullError` (so dedup joiners observe the same rejection)
        and re-raises it to the submitter.  ``gate=False`` (speculative
        pre-warm jobs) skips the queue: engine-initiated work must never
        consume a client's ``max_pending`` slots, inflate ``rejected_total``,
        or — under the block policy — stall the request that triggered it.
        """
        future = local.get(fingerprint)
        if future is not None:
            return future, False
        with self._lock:
            future = self._inflight.get(fingerprint)
            owner = future is None
            if owner:
                future = Future()
                future.set_running_or_notify_cancel()
                self._inflight[fingerprint] = future
        if owner:
            # Registered outside the lock: if the job already finished, the
            # callback runs inline and must be able to take the lock.
            future.add_done_callback(lambda _f, fp=fingerprint: self._clear_inflight(fp))
            if self._admission is None or not gate:
                try:
                    inner = self._executor.submit(self._execute, target, fingerprint)
                except BaseException as exc:
                    # The placeholder is already published: settle it so
                    # joiners unblock with the same failure and the
                    # done-callbacks clear the in-flight table — a fingerprint
                    # must never dedup against a future that can no longer
                    # resolve.
                    future.set_exception(exc)
                    raise
                inner.add_done_callback(
                    lambda done, out=future: relay_future(done, out)
                )
            else:
                dispatch = self._dispatcher(target, fingerprint, future)
                try:
                    self._admission.submit(
                        dispatch,
                        client=client,
                        # A job dropped by shutdown(cancel_pending=True) must
                        # settle its placeholder, or dedup joiners hang on a
                        # future nothing will ever resolve.
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
        local[fingerprint] = future
        return future, owner

    def _dispatcher(
        self, target: CompileTarget, fingerprint: str, future: Future
    ) -> "Callable[[], Future | None]":
        """The admission queue's deferred executor submission for one job.

        Runs when a dispatch slot frees up — possibly on another thread, long
        after the submitter admitted the job — so it must settle the
        published placeholder itself on failure (returning ``None`` tells the
        queue the slot is already free again).
        """

        def dispatch() -> Future | None:
            try:
                inner = self._executor.submit(self._execute, target, fingerprint)
            except BaseException as exc:
                future.set_exception(exc)
                return None
            inner.add_done_callback(lambda done, out=future: relay_future(done, out))
            return inner

        return dispatch

    def _reject(self, result: CompileResult) -> CompileResult:
        """Record a shed job in the request metrics and return its result."""
        self.metrics.record(self._trace(result))
        return result

    # ------------------------------------------------------------ speculation
    def _speculate(self, target: CompileTarget) -> None:
        """Background-submit the likely next requests after ``target``.

        Fire-and-forget and strictly best-effort: speculative jobs go through
        the normal dedup table (so a real request racing one simply joins
        it), never touch the request metrics — they are the engine's own
        work, not a client's — and never let a speculation failure (broken
        pool, unserializable variant) surface on the triggering request.

        "Background" is as asynchronous as the active backend: the thread
        pool truly runs speculation off the caller's path, while the
        ``inline`` backend — having no concurrency by design — compiles the
        variants synchronously before returning.
        """
        if not self.prewarm or not target.is_imagen:
            return
        variants = [
            target.with_resolution(width, height)
            for width, height in self.prewarm_resolutions
            if (width, height) != target.resolution
        ]
        variants.append(
            target.with_options(coalescing=not target.options.coalescing)
        )
        for variant in variants:
            try:
                # gate=False: speculation is the engine's own work — it
                # bypasses the admission queue so it never occupies a
                # client's max_pending slot, blocks the triggering request,
                # or pollutes the rejected_total counter.
                future, owner = self._enqueue(
                    variant, variant.fingerprint, {}, gate=False
                )
            except Exception:
                continue  # the client's own result must never pay for this
            if owner:
                with self._lock:
                    self._prewarm_pending.add(future)
                future.add_done_callback(self._discard_prewarm)

    def _discard_prewarm(self, future: Future) -> None:
        with self._lock:
            self._prewarm_pending.discard(future)

    def wait_prewarm(self, timeout: float | None = None) -> bool:
        """Block until in-flight speculative jobs settle (for tests/shutdown).

        Returns ``False`` when jobs are still pending after ``timeout``
        seconds.  Speculative failures are deliberately swallowed — a
        speculation that cannot compile just means no warm cache entry.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                pending = next(iter(self._prewarm_pending), None)
            if pending is None:
                return True
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                return False
            try:
                pending.result(timeout=remaining)
            except (Exception, asyncio.CancelledError):
                pass  # captured per-job; speculation is best-effort

    def _enqueue_all(
        self, targets: list[CompileTarget], *, client: str = ""
    ) -> list[tuple[CompileTarget, Future | None, bool, CompileResult | None]]:
        # Batch-local duplicates always share one execution (deterministic,
        # immune to the owner finishing before the twin is enqueued).  A slot
        # the admission queue sheds carries a preset rejected result instead
        # of a future, so one saturated moment never aborts the whole batch.
        local: dict[str, Future] = {}
        slots: list[tuple[CompileTarget, Future | None, bool, CompileResult | None]] = []
        for target in targets:
            try:
                future, owner = self._enqueue(
                    target, target.fingerprint, local, client=client
                )
            except QueueFullError as exc:
                slots.append((target, None, True, rejected_result(target, str(exc))))
                continue
            slots.append((target, future, owner, None))
        return slots

    def _collect(
        self,
        target: CompileTarget,
        *,
        future: Future | None,
        outcome: CompileResult | None,
        owner: bool,
    ) -> CompileResult:
        """Finalize one job: relabel dedup sharers, record metrics."""
        if outcome is None:
            outcome = future.result()
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

    def _clear_inflight(self, fingerprint: str) -> None:
        with self._lock:
            self._inflight.pop(fingerprint, None)

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
        return self._executor.stats()

    def admission_stats(self) -> dict:
        """Admission-queue snapshot (``queue_depth``, ``rejected_total``, ...).

        Engines without a bounded queue report the same schema with zero
        counters, so metrics consumers never branch on configuration.
        """
        if self._admission is None:
            return {
                "max_pending": None,
                "overflow": self.overflow,
                "queue_depth": 0,
                "inflight": 0,
                "admitted_total": 0,
                "rejected_total": 0,
                "blocked_total": 0,
                "queued_clients": 0,
            }
        return self._admission.stats()

    def describe(self) -> str:
        stats = self.cache.stats
        admission = (
            f", max_pending={self.max_pending}({self.overflow})"
            if self.max_pending is not None
            else ""
        )
        return (
            f"CompileEngine(executor={self.executor_name}, workers={self.workers}"
            f"{admission}, cache={len(self.cache)}/{self.cache.max_entries} entries, "
            f"hits={stats.hits}, misses={stats.misses}, hit_rate={stats.hit_rate:.1%})"
        )
