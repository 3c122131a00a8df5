"""The thread pool that batch, verify and queue-admitted jobs run on.

Stability: public.

:class:`repro.service.engine.CompileEngine` runs a single ``submit`` on its
caller's thread.  Batch items, verify bodies and queue-admitted submits run
on an :class:`ExecutorBackend`, by default a :class:`ThreadExecutor`: a
lazily created :class:`~concurrent.futures.ThreadPoolExecutor`.  Solves of
the systems the flow kernel defers overlap on multi-core hosts because HiGHS
releases the GIL; the others take the pure-Python flow kernel, which holds
the GIL for under 1 ms.

A backend's ``submit(run_local, target, fingerprint)`` returns a
:class:`concurrent.futures.Future` that resolves to a
:class:`repro.service.jobs.CompileResult`; ``run_local`` is the engine's
in-process job body.  ``CompileEngine(executor=...)`` takes a ready-made
backend instance, for example one shared between engines.
"""

from __future__ import annotations

import abc
import threading
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from typing import Callable

from repro.api.target import CompileTarget
from repro.service.jobs import CompileResult


def relay_future(source: Future, destination: Future) -> None:
    """Copy a settled future's outcome onto another (already-running) future.

    Cancellation arrives as a ``CancelledError`` *exception* on the
    destination: it was marked running at publication, so joiners'
    ``cancel()`` calls are no-ops, and ``result()`` raises the
    ``CancelledError`` to every waiter.
    """
    if source.cancelled():
        destination.set_exception(CancelledError())
        return
    exc = source.exception()
    if exc is not None:
        destination.set_exception(exc)
        return
    destination.set_result(source.result())

#: Environment variable that overrides the default worker count (shared with
#: :func:`repro.service.engine.default_worker_count`).
WORKERS_ENV_VAR = "REPRO_WORKERS"


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
    """The one backend's name; ``perfbench``'s machine metadata reads it."""
    return "thread"


class ExecutorBackend(abc.ABC):
    """Where compile jobs run.

    Backends are lazy (no pool exists until the first job) and reusable after
    :meth:`shutdown` (the next job recreates the pool).
    """

    #: Backend name, reported as the ``executor`` metric.
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
