"""Solver facade: pick a backend and solve an ILP model.

``backend`` may be:

* ``"highs"`` — SciPy's HiGHS MILP solver;
* ``"python"`` — the pure-Python branch-and-bound over the simplex engine;
* ``"auto"`` — HiGHS when importable, otherwise the Python backend.

The scheduler calls this facade only for systems that the branched
min-cost-flow kernel (:mod:`repro.core.flow`) leaves open: those with no
least optimum (mirror-image optima) or more than
:data:`repro.core.scheduler.MAX_FLOW_BRANCHES` disjunct combinations.  It
always solves with ``"auto"``; the explicit names exist so tests can
cross-check the two exact backends against each other.
"""

from __future__ import annotations

from repro.errors import InfeasibleError, SolverError, UnboundedError
from repro.ilp import highs
from repro.ilp.branch_and_bound import solve_branch_and_bound
from repro.ilp.model import Model, SolveResult, SolveStatus
from repro.trace import span_attr

_KNOWN_BACKENDS = ("auto", "python", "highs")

#: Wall-clock cap, in seconds, on one solve, HiGHS or the fallback.  Far
#: above every measured scheduling solve that reaches it: 30-95 ms for the
#: 16 Fig. 10 variants of canny-m and harris-m with mirror-image optima
#: (every catalog design itself solves on the flow kernel) and about 120 ms
#: for the 60-stage synthetic pipeline.  Some systems with many true
#: disjunctions keep HiGHS from closing its gap for minutes; at the cap the
#: scheduler raises a ``SchedulingError`` that gives the gap left.
SOLVE_TIME_LIMIT_S = 60.0


def available_backends() -> list[str]:
    """Names of the backends usable in this environment."""
    backends = ["python"]
    if highs.is_available():
        backends.insert(0, "highs")
    return backends


def resolve_backend(backend: str = "auto") -> str:
    """Resolve ``"auto"`` to a concrete backend by HiGHS availability.

    Raises :class:`SolverError` for a name outside ``_KNOWN_BACKENDS``.
    """
    if backend not in _KNOWN_BACKENDS:
        raise SolverError(
            f"Unknown ILP backend {backend!r}; expected one of {_KNOWN_BACKENDS}"
        )
    if backend == "auto":
        backend = "highs" if highs.is_available() else "python"
    return backend


def solve(
    model: Model,
    backend: str = "auto",
    *,
    raise_on_failure: bool = False,
) -> SolveResult:
    """Solve ``model`` and return a :class:`SolveResult`.

    With ``raise_on_failure=True``, infeasible/unbounded outcomes raise
    :class:`InfeasibleError` / :class:`UnboundedError` instead of being
    returned as statuses.  A solve still open after
    :data:`SOLVE_TIME_LIMIT_S` stops with status ``error`` and a message
    giving the gap left.  The backend, status and counts are reported onto
    the caller's open span: the scheduler's ``ilp`` span, which also covers
    the flow attempt that deferred to this solve.
    """
    backend = resolve_backend(backend)

    if backend == "highs":
        result = highs.solve_highs(model, time_limit=SOLVE_TIME_LIMIT_S)
    else:
        result = solve_branch_and_bound(model, time_limit=SOLVE_TIME_LIMIT_S)
    span_attr(
        backend=backend,
        status=result.status.value,
        lp_iterations=result.iterations,
        bnb_pruned=result.pruned,
    )

    if raise_on_failure:
        if result.status is SolveStatus.INFEASIBLE:
            raise InfeasibleError(f"Model {model.name!r} is infeasible ({result.message})")
        if result.status is SolveStatus.UNBOUNDED:
            raise UnboundedError(f"Model {model.name!r} is unbounded ({result.message})")
        if result.status is SolveStatus.ERROR:
            raise SolverError(f"Backend {backend!r} failed on model {model.name!r}: {result.message}")
    return result
