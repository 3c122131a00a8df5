"""Pluggable execution backends for the compile engine.

Stability: public.

:class:`repro.service.engine.CompileEngine` fans batch and async submissions
out over an :class:`ExecutorBackend`.  The two interchangeable backends are
selected with ``CompileEngine(executor=...)`` or the ``REPRO_EXECUTOR``
environment variable:

``inline``
    Runs every job synchronously on the submitting thread.  Deterministic
    ordering and zero concurrency — the backend for tests and debugging.
``thread``
    A lazily-created :class:`~concurrent.futures.ThreadPoolExecutor` (the
    default).  Solves of the systems the flow kernel defers overlap on
    multi-core hosts because HiGHS releases the GIL; the others take the
    pure-Python flow kernel, which holds the GIL for under 1 ms.

Both backends present one interface: ``submit(run_local, target, fingerprint)``
returning a :class:`concurrent.futures.Future` that resolves to a
:class:`repro.service.jobs.CompileResult`.  ``run_local`` is the engine's
in-process job body.  Futures from either backend work with
:func:`asyncio.wrap_future`, so the engine's asyncio front is backend-neutral.
"""

from __future__ import annotations

import abc
import os
import threading
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from typing import Callable

from repro.api.target import CompileTarget
from repro.service.jobs import CompileResult


def relay_future(source: Future, destination: Future) -> None:
    """Copy a settled future's outcome onto another (already-running) future.

    Cancellation arrives as a ``CancelledError`` *exception* on the
    destination — it was marked running at publication so joiners' ``cancel()``
    calls are no-ops, and ``asyncio.wrap_future`` surfaces the exception as a
    normal await-side ``CancelledError``.
    """
    if source.cancelled():
        destination.set_exception(CancelledError())
        return
    exc = source.exception()
    if exc is not None:
        destination.set_exception(exc)
        return
    destination.set_result(source.result())

#: Environment variable that selects the default backend for engines that are
#: constructed without an explicit ``executor=`` argument.
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: Environment variable that overrides the default worker count (shared with
#: :func:`repro.service.engine.default_worker_count`).
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Valid backend names, in documentation order.
EXECUTOR_NAMES = ("inline", "thread")

#: Backend used when neither ``executor=`` nor ``REPRO_EXECUTOR`` is given.
DEFAULT_EXECUTOR = "thread"


def validate_worker_count(value, *, source: str = "workers") -> int:
    """Check a worker-count setting, rejecting garbage with a clear error.

    ``REPRO_WORKERS=0``, negative counts and non-integers used to slip
    through to the pool constructor (or be silently ignored); every entry
    point now funnels through this check and raises :class:`ValueError`
    naming the offending setting instead.
    """
    try:
        workers = int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a positive integer, got {value!r}"
        ) from None
    if workers != value and not isinstance(value, str):
        # int() would silently truncate e.g. 2.5 workers; refuse instead.
        raise ValueError(f"{source} must be a positive integer, got {value!r}")
    if workers < 1:
        raise ValueError(f"{source} must be >= 1, got {workers}")
    return workers


def default_executor_name() -> str:
    """Backend name used when the caller does not specify one.

    ``REPRO_EXECUTOR``, when set, must name a known backend; anything else
    raises :class:`ValueError` (misspelling a deployment knob should fail
    loudly, not silently serialize a fleet onto the wrong backend).
    """
    override = os.environ.get(EXECUTOR_ENV_VAR, "").strip().lower()
    if not override:
        return DEFAULT_EXECUTOR
    if override not in EXECUTOR_NAMES:
        raise ValueError(
            f"Invalid {EXECUTOR_ENV_VAR}={override!r}; expected one of {EXECUTOR_NAMES}"
        )
    return override


class ExecutorBackend(abc.ABC):
    """How compile jobs run: inline, or on a thread pool.

    Backends are lazy (no pool exists until the first job) and reusable after
    :meth:`shutdown` (the next job recreates the pool), mirroring the
    engine's historical lifecycle.
    """

    #: Backend name as used by ``CompileEngine(executor=...)``.
    name: str = "?"

    def __init__(self, workers: int = 1) -> None:
        self.workers = validate_worker_count(workers)

    @abc.abstractmethod
    def submit(
        self,
        run_local: Callable[[CompileTarget, str], CompileResult],
        target: CompileTarget,
        fingerprint: str,
    ) -> "Future[CompileResult]":
        """Queue one job; the future resolves to its :class:`CompileResult`."""

    def shutdown(self, wait: bool = True, *, cancel_pending: bool = False) -> None:
        """Release pool resources (a later submit transparently recreates them)."""

    def stats(self) -> dict:
        """Operational snapshot for metrics endpoints (``/v1/metrics``)."""
        return {"executor": self.name, "workers": self.workers}

    def describe(self) -> str:
        return f"{self.name}(workers={self.workers})"


class InlineExecutor(ExecutorBackend):
    """Run every job synchronously on the submitting thread.

    Batches execute strictly in submission order with no concurrency — the
    deterministic backend for tests, debugging and single-core deployments.
    """

    name = "inline"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers)

    def submit(self, run_local, target, fingerprint):
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(run_local(target, fingerprint))
        except BaseException as exc:  # run_local captures compile errors;
            future.set_exception(exc)  # anything escaping is fatal — carry it
        return future


class ThreadExecutor(ExecutorBackend):
    """Fan jobs out over a lazily-created thread pool (the default)."""

    name = "thread"

    def __init__(self, workers: int) -> None:
        super().__init__(workers)
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-compile"
                )
            return self._pool

    def submit(self, run_local, target, fingerprint):
        return self._ensure_pool().submit(run_local, target, fingerprint)

    def shutdown(self, wait: bool = True, *, cancel_pending: bool = False) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=cancel_pending)


def resolve_executor(
    executor: str | ExecutorBackend | None, *, workers: int
) -> ExecutorBackend:
    """Turn an ``executor=`` argument into a live backend.

    ``None`` consults ``REPRO_EXECUTOR`` and falls back to ``"thread"``; a
    string must be one of :data:`EXECUTOR_NAMES`; a ready-made
    :class:`ExecutorBackend` instance is used as-is (its own worker count
    wins — sharing one backend between engines is allowed).
    """
    if isinstance(executor, ExecutorBackend):
        return executor
    name = executor if executor is not None else default_executor_name()
    if name == "inline":
        return InlineExecutor()
    if name == "thread":
        return ThreadExecutor(workers)
    raise ValueError(f"Unknown executor {executor!r}; expected one of {EXECUTOR_NAMES}")
