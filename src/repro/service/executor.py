"""Worker-count settings of the engine's job queue.

Stability: public.

:class:`repro.service.engine.CompileEngine` runs batch items, verify bodies
and queue-admitted submits on the ``workers`` threads of its
:class:`repro.service.admission.JobQueue`.  Solves of the systems the flow
kernel defers overlap on multi-core hosts because HiGHS releases the GIL;
the others take the pure-Python flow kernel, which holds the GIL for under
1 ms.
"""

from __future__ import annotations

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
