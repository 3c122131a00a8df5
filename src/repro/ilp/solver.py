"""Solver facade: pick a backend and solve an ILP model.

``backend`` may be:

* ``"highs"`` — SciPy's HiGHS MILP solver (fast, default when available);
* ``"python"`` — the pure-Python branch-and-bound over the simplex engine;
* ``"auto"`` — the ``REPRO_ILP_BACKEND`` environment variable when set,
  otherwise HiGHS when importable, otherwise the Python backend.
"""

from __future__ import annotations

import os

from repro.errors import InfeasibleError, SolverError, UnboundedError
from repro.ilp import highs
from repro.ilp.branch_and_bound import solve_branch_and_bound
from repro.ilp.model import Model, SolveResult, SolveStatus, WarmStart
from repro.trace import span_attr, trace_span

#: Environment override consulted by ``backend="auto"`` — lets CI pin the
#: whole suite to one backend (e.g. ``REPRO_ILP_BACKEND=python`` to exercise
#: the SciPy-free path) without threading an option through every caller.
BACKEND_ENV_VAR = "REPRO_ILP_BACKEND"

_KNOWN_BACKENDS = ("auto", "python", "highs")


def available_backends() -> list[str]:
    """Names of the backends usable in this environment."""
    backends = ["python"]
    if highs.is_available():
        backends.insert(0, "highs")
    return backends


def check_backend(backend: str) -> str:
    """Apply the ``REPRO_ILP_BACKEND`` override to ``"auto"``, without probing
    for HiGHS.

    Raises :class:`SolverError` for a name outside ``_KNOWN_BACKENDS``, whether
    passed directly or through the environment variable.
    """
    if backend not in _KNOWN_BACKENDS:
        raise SolverError(
            f"Unknown ILP backend {backend!r}; expected one of {_KNOWN_BACKENDS}"
        )
    if backend == "auto":
        env = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
        if env:
            if env not in _KNOWN_BACKENDS:
                raise SolverError(
                    f"{BACKEND_ENV_VAR}={env!r} is not one of {_KNOWN_BACKENDS}"
                )
            backend = env
    return backend


def resolve_backend(backend: str = "auto") -> str:
    """Resolve ``"auto"`` (env var, then availability) to a concrete backend."""
    backend = check_backend(backend)
    if backend == "auto":
        backend = "highs" if highs.is_available() else "python"
    return backend


def solve(
    model: Model,
    backend: str = "auto",
    *,
    warm_start: WarmStart | None = None,
    raise_on_failure: bool = False,
) -> SolveResult:
    """Solve ``model`` and return a :class:`SolveResult`.

    With ``raise_on_failure=True``, infeasible/unbounded outcomes raise
    :class:`InfeasibleError` / :class:`UnboundedError` instead of being
    returned as statuses.  ``warm_start`` seeds the Python branch-and-bound;
    the HiGHS backend ignores it.
    """
    backend = resolve_backend(backend)

    with trace_span("ilp", backend=backend):
        if backend == "highs":
            result = highs.solve_highs(model)
        else:
            result = solve_branch_and_bound(model, warm_start=warm_start)
        span_attr(
            status=result.status.value,
            lp_iterations=result.iterations,
            bnb_pruned=result.pruned,
        )
        if result.warm_start != "none":
            span_attr(warm_start=result.warm_start)

    if raise_on_failure:
        if result.status is SolveStatus.INFEASIBLE:
            raise InfeasibleError(f"Model {model.name!r} is infeasible ({result.message})")
        if result.status is SolveStatus.UNBOUNDED:
            raise UnboundedError(f"Model {model.name!r} is unbounded ({result.message})")
        if result.status is SolveStatus.ERROR:
            raise SolverError(f"Backend {backend!r} failed on model {model.name!r}: {result.message}")
    return result

