"""Pure-Python branch-and-bound MILP solver on top of the simplex LP engine.

This backend exists so the library works without SciPy's HiGHS interface and
so that the two backends can cross-validate each other in tests.  It is a
textbook best-first branch-and-bound:

1. solve the LP relaxation;
2. if the relaxation is integral, it is a candidate incumbent;
3. otherwise branch on the most fractional integer variable, adding
   ``x <= floor(v)`` / ``x >= ceil(v)`` bounds;
4. prune nodes whose relaxation bound cannot beat the incumbent.

**Warm starts** support the solve-acceleration layer: a feasible
:class:`~repro.ilp.model.WarmStart` installs its objective as the incumbent
bound before the first LP solve.  The search then only looks for *strictly
better* solutions (for integral objectives the cutoff is a full unit below the
incumbent, which is what makes the pruning bite); if none exists, the warm
incumbent is returned as the proven optimum.  Among multiple optima the
incumbent is therefore preferred — a deterministic, documented tie-break.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SolverError
from repro.ilp.model import Model, SolveResult, SolveStatus, WarmStart
from repro.ilp.simplex import solve_lp
from repro.trace import span_attr

_INT_TOL = 1e-6


@dataclass(order=True)
class _Node:
    bound: float
    tiebreak: int
    # The bound arrays must stay out of the ordering: ties on
    # (bound, tiebreak) would otherwise fall through to ambiguous elementwise
    # ndarray comparison inside heapq.  tiebreak is unique per node, so the
    # ordering is already total without them.
    lb: np.ndarray = field(default=None, compare=False)  # type: ignore[assignment]
    ub: np.ndarray = field(default=None, compare=False)  # type: ignore[assignment]


def _model_matrices(model: Model):
    """Translate a Model into (c, A_ub, b_ub, A_eq, b_eq, lb, ub) arrays."""
    n = model.num_variables
    c = np.zeros(n)
    for var, coeff in model.objective.coeffs.items():
        c[var.index] += coeff
    if model.sense == "max":
        c = -c

    rows_ub: list[np.ndarray] = []
    b_ub: list[float] = []
    rows_eq: list[np.ndarray] = []
    b_eq: list[float] = []
    for constraint in model.constraints:
        row = np.zeros(n)
        for var, coeff in constraint.expr.coeffs.items():
            row[var.index] += coeff
        if constraint.sense == "<=":
            rows_ub.append(row)
            b_ub.append(constraint.rhs)
        elif constraint.sense == ">=":
            rows_ub.append(-row)
            b_ub.append(-constraint.rhs)
        else:
            rows_eq.append(row)
            b_eq.append(constraint.rhs)

    lb = np.array([v.lb if v.lb is not None else -np.inf for v in model.variables])
    ub = np.array([v.ub if v.ub is not None else np.inf for v in model.variables])
    a_ub = np.vstack(rows_ub) if rows_ub else None
    a_eq = np.vstack(rows_eq) if rows_eq else None
    return c, a_ub, np.array(b_ub), a_eq, np.array(b_eq), lb, ub


def _objective_is_integral(model: Model) -> bool:
    """True when every feasible objective value lies on the integer lattice.

    Holds when each objective term has an integer coefficient over an integer
    variable — then any two feasible objective values differ by an integer,
    which licenses the unit-deep warm-start cutoff.
    """
    for var, coeff in model.objective.coeffs.items():
        if not var.integer or not float(coeff).is_integer():
            return False
    return True


def _resolve_warm_start(model: Model, warm_start: WarmStart) -> dict | None:
    """Map a warm start onto this model's variables; ``None`` if it cannot be."""
    by_name = {var.name: var for var in model.variables}
    values: dict = {}
    for key, value in warm_start.values.items():
        if isinstance(key, str):
            var = by_name.get(key)
        else:
            var = key
            owned = var.index < model.num_variables and model.variables[var.index] is var
            if not owned:
                var = None
        if var is None:
            return None
        values[var] = float(value)
    if not model.is_feasible(values):
        return None
    return values


def solve_branch_and_bound(
    model: Model,
    max_nodes: int = 200000,
    time_limit: float | None = None,
    *,
    warm_start: WarmStart | None = None,
) -> SolveResult:
    """Solve ``model`` exactly with branch and bound over the simplex engine."""
    import time

    start = time.monotonic()
    c, a_ub, b_ub, a_eq, b_eq, lb0, ub0 = _model_matrices(model)
    integer_indices = [v.index for v in model.variables if v.integer]

    counter = itertools.count()
    best_objective = math.inf
    best_x: np.ndarray | None = None
    total_lp_iterations = 0
    explored = 0
    pruned = 0

    # A feasible warm start installs its objective as the incumbent bound
    # (internally always min-sense, matching c above) *without* installing its
    # solution vector: only strictly better solutions are recorded, and the
    # warm values are returned verbatim when none exists.  For integral
    # objectives the cutoff sits a full unit below the incumbent, so sibling
    # optima prune immediately instead of being re-enumerated.
    warm_outcome = "none"
    warm_values: dict | None = None
    warm_internal: float | None = None
    if warm_start is not None:
        warm_values = _resolve_warm_start(model, warm_start)
        if warm_values is None:
            warm_outcome = "rejected"
        else:
            warm_outcome = "seeded"
            warm_true = model.objective_value(warm_values)
            warm_internal = warm_true if model.sense == "min" else -warm_true
            slack = (1.0 - _INT_TOL) if _objective_is_integral(model) else _INT_TOL
            best_objective = warm_internal - slack

    root = _Node(bound=-math.inf, tiebreak=next(counter), lb=lb0.copy(), ub=ub0.copy())
    heap: list[_Node] = [root]
    saw_unbounded_root = False

    while heap:
        if time_limit is not None and time.monotonic() - start > time_limit:
            raise SolverError("Branch-and-bound time limit exceeded")
        node = heapq.heappop(heap)
        if node.bound >= best_objective - 1e-9:
            pruned += 1
            continue
        explored += 1
        if explored > max_nodes:
            raise SolverError("Branch-and-bound node limit exceeded")

        relax = solve_lp(c, a_ub, b_ub, a_eq, b_eq, node.lb, node.ub)
        total_lp_iterations += relax.iterations
        if relax.status == "infeasible":
            continue
        if relax.status == "unbounded":
            if explored == 1:
                saw_unbounded_root = True
                # An unbounded relaxation of an integer program with a bounded
                # optimum cannot be resolved by bounding here; report it.
                break
            continue

        assert relax.x is not None
        if relax.objective is not None and relax.objective >= best_objective - 1e-9:
            pruned += 1
            continue

        fractional = [
            (abs(relax.x[i] - round(relax.x[i])), i)
            for i in integer_indices
            if abs(relax.x[i] - round(relax.x[i])) > _INT_TOL
        ]
        if not fractional:
            objective = float(relax.objective if relax.objective is not None else c @ relax.x)
            if objective < best_objective - 1e-9:
                best_objective = objective
                best_x = relax.x.copy()
                for i in integer_indices:
                    best_x[i] = round(best_x[i])
            continue

        _, branch_var = max(fractional)
        value = relax.x[branch_var]
        floor_value = math.floor(value)

        down = _Node(
            bound=float(relax.objective or 0.0),
            tiebreak=next(counter),
            lb=node.lb.copy(),
            ub=node.ub.copy(),
        )
        down.ub[branch_var] = min(down.ub[branch_var], floor_value)
        if down.lb[branch_var] <= down.ub[branch_var]:
            heapq.heappush(heap, down)

        up = _Node(
            bound=float(relax.objective or 0.0),
            tiebreak=next(counter),
            lb=node.lb.copy(),
            ub=node.ub.copy(),
        )
        up.lb[branch_var] = max(up.lb[branch_var], floor_value + 1)
        if up.lb[branch_var] <= up.ub[branch_var]:
            heapq.heappush(heap, up)

    # Reported onto the enclosing "ilp" span (no-op outside a trace): node
    # count is the cost driver of this backend, alongside LP iterations.
    span_attr(bnb_nodes=explored, bnb_pruned=pruned)
    if warm_start is not None:
        span_attr(warm_start=warm_outcome)

    if best_x is None:
        if saw_unbounded_root:
            return SolveResult(
                status=SolveStatus.UNBOUNDED,
                backend="python",
                iterations=total_lp_iterations,
                nodes=explored,
                pruned=pruned,
                warm_start=warm_outcome,
            )
        if warm_internal is not None:
            # The search exhausted without beating the incumbent: the warm
            # solution is a proven optimum.  Return it verbatim.
            assert warm_values is not None
            values = {
                var: float(round(value)) if var.integer else float(value)
                for var, value in warm_values.items()
            }
            return SolveResult(
                status=SolveStatus.OPTIMAL,
                objective=model.objective_value(values),
                values=values,
                backend="python",
                iterations=total_lp_iterations,
                nodes=explored,
                pruned=pruned,
                warm_start="incumbent",
            )
        return SolveResult(
            status=SolveStatus.INFEASIBLE,
            backend="python",
            iterations=total_lp_iterations,
            nodes=explored,
            pruned=pruned,
            warm_start=warm_outcome,
        )

    values = {var: float(best_x[var.index]) for var in model.variables}
    objective = model.objective.evaluate(values)
    return SolveResult(
        status=SolveStatus.OPTIMAL,
        objective=objective,
        values=values,
        backend="python",
        iterations=total_lp_iterations,
        nodes=explored,
        pruned=pruned,
        warm_start=warm_outcome,
    )
