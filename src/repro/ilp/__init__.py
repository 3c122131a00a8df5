"""Integer Linear Programming substrate.

The paper solves its scheduling formulation with Google OR-Tools.  OR-Tools is
not available offline, so this package provides the same capability from
scratch:

* :mod:`repro.ilp.expr` / :mod:`repro.ilp.model` — a small modeling layer
  (variables, linear expressions, constraints, objective).
* :mod:`repro.ilp.simplex` — a dense two-phase primal simplex LP solver.
* :mod:`repro.ilp.branch_and_bound` — a branch-and-bound MILP solver on top of
  the simplex solver (pure Python backend).
* :mod:`repro.ilp.highs` — a backend that maps the model onto
  ``scipy.optimize.milp`` (HiGHS).
* :mod:`repro.ilp.solver` — the facade used by the rest of the library.

Both backends are exact.  The scheduler reaches this package only for
systems with a true disjunction (the others go to the min-cost-flow kernel
in :mod:`repro.core.flow`) and always asks for ``"auto"``: HiGHS, or the
branch-and-bound when SciPy is missing; tests cross-check the two.
"""

from repro.ilp.expr import Variable, LinExpr
from repro.ilp.model import Model, Constraint, SolveResult, SolveStatus
from repro.ilp.solver import solve, available_backends, resolve_backend

__all__ = [
    "Variable",
    "LinExpr",
    "Model",
    "Constraint",
    "SolveResult",
    "SolveStatus",
    "solve",
    "available_backends",
    "resolve_backend",
]
