"""Property tests of the min-cost-flow kernel (:mod:`repro.core.flow`).

Two oracles, both HiGHS:

* on random difference systems, including infeasible ones (a positive cycle
  or a longest path past the horizon), the kernel reaches SciPy's verdict and
  objective, and its point is the least one on the LP's optimal face;
* on random disjunction-free pipelines, the scheduler's start cycles are the
  earliest optimum of the big-M model: for every stage, the minimum of
  ``S_s`` over that model's optimal face.

The optimal face of a difference system is itself a difference system, so
its componentwise-least point exists and is the unique minimiser of the sum
of the coordinates over the face: one extra solve finds every per-node
minimum at once.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, assume, example, given, settings, strategies as st

from repro.core.flow import earliest_optimum
from repro.core.scheduler import (
    SchedulerOptions,
    _build_big_m,
    _constraint_prologue,
    schedule_pipeline,
)
from repro.ilp.expr import linear_sum
from repro.ilp.model import SolveStatus
from repro.ilp.solver import solve
from repro.memory.spec import asic_dual_port, asic_single_port

from test_prop_core import random_pipeline

optimize = pytest.importorskip("scipy.optimize")

W, H = 32, 24


@st.composite
def difference_systems(draw):
    """Up to 12 nodes, arcs of weight -10..10, integer costs, optional anchors."""
    size = draw(st.integers(2, 12))
    pairs = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(
        lambda pair: pair[0] != pair[1]
    )
    arcs = draw(st.dictionaries(pairs, st.integers(-10, 10), max_size=4 * size))
    costs = draw(st.dictionaries(st.integers(0, size - 1), st.integers(-3, 3)))
    anchored = draw(st.lists(st.integers(0, size - 1), unique=True, max_size=3))
    horizon = draw(st.integers(0, 60))
    return size, arcs, costs, anchored, horizon


def _linprog(size, arcs, costs, anchored, horizon, objective, cap=None):
    """SciPy's LP over the same system; ``cap`` bounds ``costs . x`` above."""
    rows, rhs = [], []
    for (a, b), w in arcs.items():
        row = np.zeros(size)
        row[a], row[b] = 1.0, -1.0
        rows.append(row)
        rhs.append(-w)
    if cap is not None:
        rows.append(np.array([costs.get(v, 0) for v in range(size)], dtype=float))
        rhs.append(cap)
    bounds = [(0, 0) if v in anchored else (0, horizon) for v in range(size)]
    return optimize.linprog(
        objective,
        A_ub=np.array(rows) if rows else None,
        b_ub=rhs if rows else None,
        bounds=bounds,
        method="highs",
    )


class TestDifferenceSystems:
    @settings(max_examples=100, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(difference_systems())
    # Dijkstra stops at the first deficit node; nodes it has not settled must
    # still move by the sink's distance, or a later path is mispriced.
    @example((6, {(3, 0): 9, (1, 4): 4, (2, 1): -6, (3, 4): 1, (4, 5): -8, (1, 0): 8,
                  (5, 4): -2}, {4: 2, 5: -2}, [], 57))
    def test_matches_scipy_verdict_objective_and_least_point(self, system):
        size, arcs, costs, anchored, horizon = system
        solution = earliest_optimum(
            range(size), arcs, costs, anchored=anchored, horizon=horizon
        )
        objective = np.array([costs.get(v, 0) for v in range(size)], dtype=float)
        oracle = _linprog(size, arcs, costs, anchored, horizon, objective)
        if oracle.status == 2:
            assert solution is None
            return
        assert oracle.status == 0, oracle.message
        assert solution is not None
        values, value = solution
        assert value == round(oracle.fun)
        for (a, b), w in arcs.items():
            assert values[b] - values[a] >= w
        assert all(0 <= values[v] <= horizon for v in range(size))
        earliest = _linprog(size, arcs, costs, anchored, horizon, np.ones(size), cap=value)
        assert earliest.status == 0, earliest.message
        assert [values[v] for v in range(size)] == [round(x) for x in earliest.x]

    def test_positive_cycle_is_infeasible(self):
        arcs = {(0, 1): 2, (1, 2): 1, (2, 1): 0}
        assert earliest_optimum(range(3), arcs, {2: 1}, anchored=[0], horizon=50) is None

    def test_horizon_bounds_the_longest_path(self):
        arcs = {(0, 1): 6, (1, 2): 6}
        assert earliest_optimum(range(3), arcs, {}, anchored=[0], horizon=11) is None
        values, _ = earliest_optimum(range(3), arcs, {}, anchored=[0], horizon=12)
        assert values == {0: 0, 1: 6, 2: 12}

    def test_tie_resolves_to_the_least_point(self):
        """Every ``x_1 = x_2`` in [3, 9] is optimal; the kernel returns 3."""
        arcs = {(0, 1): 3, (1, 2): 0}
        values, objective = earliest_optimum(
            range(3), arcs, {2: 1, 1: -1}, anchored=[0], horizon=9
        )
        assert (values, objective) == ({0: 0, 1: 3, 2: 3}, 0)


def _has_true_disjunction(dag, spec, options) -> bool:
    prologue = _constraint_prologue(dag, W, spec, options)
    return any(not disjunction.is_singleton for disjunction in prologue.disjunctions)


def _earliest_big_m_optimum(dag, spec, options) -> dict[str, int]:
    """The least start cycles on the big-M model's optimal face (HiGHS)."""
    prologue = _constraint_prologue(dag, W, spec, options)
    model, _ = _build_big_m(dag, W, prologue)
    best = solve(model, backend="highs")
    assert best.status is SolveStatus.OPTIMAL
    model, start_vars = _build_big_m(dag, W, prologue)
    model.add_constraint(model.objective <= best.objective, name="optimal-face")
    model.set_objective(linear_sum(start_vars.values()))
    earliest = solve(model, backend="highs")
    assert earliest.status is SolveStatus.OPTIMAL
    return {stage: int(round(earliest.value(var))) for stage, var in start_vars.items()}


class TestDisjunctionFreePipelines:
    @pytest.mark.parametrize("spec", [asic_dual_port(), asic_single_port()], ids=["dp", "sp"])
    @pytest.mark.parametrize("coalescing", [False, True], ids=["plain", "lc"])
    @settings(max_examples=8, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate),
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(dag=random_pipeline())
    def test_flow_schedule_is_the_earliest_big_m_optimum(self, dag, spec, coalescing):
        options = SchedulerOptions(coalescing=coalescing)
        # Filter before HiGHS sees the model: a true disjunction can make the
        # big-M model take minutes.
        assume(not _has_true_disjunction(dag, spec, options))
        schedule = schedule_pipeline(dag, W, H, spec, options)
        assert schedule.solver_stats["backend"] == "flow"
        assert schedule.start_cycles == _earliest_big_m_optimum(dag, spec, options)
