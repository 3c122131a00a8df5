"""Pure-Python branch-and-bound MILP solver on top of the simplex LP engine.

This backend exists so the library works without SciPy's HiGHS interface and
so that the two backends can cross-validate each other in tests.  It is a
textbook best-first branch-and-bound:

1. solve the LP relaxation;
2. if the relaxation is integral, it is a candidate incumbent;
3. otherwise branch on the most fractional integer variable, adding
   ``x <= floor(v)`` / ``x >= ceil(v)`` bounds;
4. prune nodes whose relaxation bound cannot beat the incumbent.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SolverError
from repro.ilp.model import Model, SolveResult, SolveStatus, time_limit_message
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


def solve_branch_and_bound(
    model: Model,
    max_nodes: int = 200000,
    time_limit: float | None = None,
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

    root = _Node(bound=-math.inf, tiebreak=next(counter), lb=lb0.copy(), ub=ub0.copy())
    heap: list[_Node] = [root]
    saw_unbounded_root = False

    timed_out = False
    while heap:
        if time_limit is not None and time.monotonic() - start > time_limit:
            timed_out = True
            break
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

    if timed_out:
        # The heap is ordered by bound, so its head bounds every open node.
        gap = (
            None
            if best_x is None
            else (best_objective - heap[0].bound) / max(abs(best_objective), 1e-9)
        )
        return SolveResult(
            status=SolveStatus.ERROR,
            backend="python",
            iterations=total_lp_iterations,
            nodes=explored,
            pruned=pruned,
            message=time_limit_message(time_limit, gap),
        )
    if best_x is None:
        return SolveResult(
            status=SolveStatus.UNBOUNDED if saw_unbounded_root else SolveStatus.INFEASIBLE,
            backend="python",
            iterations=total_lp_iterations,
            nodes=explored,
            pruned=pruned,
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
    )
