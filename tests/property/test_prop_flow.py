"""Property tests of the min-cost-flow kernel (:mod:`repro.core.flow`).

Three oracles, all HiGHS (SciPy's ``linprog``, and ``oracles.big_m_milp`` on the
scheduler's big-M arrays):

* on random difference systems, including infeasible ones (a positive cycle
  or a longest path past the horizon), the kernel reaches SciPy's verdict and
  objective, and its point is the least one on the LP's optimal face;
* on random disjunction-free pipelines, the scheduler's start cycles are the
  earliest optimum of the big-M model: for every stage, the minimum of
  ``S_s`` over that model's optimal face;
* on random pipelines with 2 to ``MAX_FLOW_BRANCHES`` (16) disjunct
  combinations, including infeasible ones (a horizon cut below the longest
  path), the branched kernel reaches the big-M model's verdict and
  objective.  When it answers, each start cycle is that stage's minimum
  over the big-M optimal set; when it defers, the vector of those minima is
  not itself optimal.

The optimal face of a difference system is itself a difference system, so
its componentwise-least point exists and is the unique minimiser of the sum
of the coordinates over the face: one extra solve finds every per-node
minimum at once.  The optimal set of a system with true disjunctions is a
union of such faces and need not have a least point, so the third oracle
takes one MILP per stage.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import (
    HealthCheck, Phase, assume, event, example, given, settings, strategies as st,
)
from scipy.optimize import linprog

from repro.core.flow import difference_system, earliest_optimum
from repro.core.pruning import count_subproblems
from repro.core.scheduler import (
    MAX_FLOW_BRANCHES,
    SchedulerOptions,
    _constraint_prologue,
    _solve_flow,
    schedule_pipeline,
)
from repro.errors import SchedulingError
from repro.memory.spec import asic_dual_port, asic_single_port

from oracles import big_m_milp, schedule_is_legal, schedule_objective
from test_prop_core import random_pipeline
from tests.conftest import harris_tie_target

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
    return linprog(
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
    best = big_m_milp(dag, W, prologue)
    assert best.status == 0, best.message
    stages = dag.stage_names()
    earliest = big_m_milp(dag, W, prologue, minimise=stages, optimum=round(best.fun))
    assert earliest.status == 0, earliest.message
    return {stage: int(round(value)) for stage, value in zip(stages, earliest.x)}


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


def _stage_minima(dag, prologue, optimum: float, width: int = W) -> dict[str, int]:
    """Each stage's least start cycle over the big-M optimal set: one MILP
    per stage, with the objective held at ``optimum``."""
    minima = {}
    for stage in dag.stage_names():
        result = big_m_milp(dag, width, prologue, minimise=[stage], optimum=optimum)
        assert result.status == 0, result.message
        minima[stage] = int(round(result.fun))
    return minima


def _is_optimal(dag, prologue, cycles, optimum: float) -> bool:
    mandatory, multis = difference_system(prologue.dependencies, prologue.disjunctions)
    return schedule_is_legal(cycles, mandatory, multis) and (
        schedule_objective(dag, cycles) == optimum
    )


class TestBranchedPipelines:
    @pytest.mark.parametrize("spec", [asic_dual_port(), asic_single_port()], ids=["dp", "sp"])
    @pytest.mark.parametrize("coalescing", [False, True], ids=["plain", "lc"])
    @settings(max_examples=8, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate),
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(dag=random_pipeline(), cut=st.sampled_from([1.0, 0.5, 0.3, 0.2]))
    def test_kernel_answer_is_the_least_big_m_optimum(self, dag, spec, coalescing, cut):
        prologue = _constraint_prologue(dag, W, spec, SchedulerOptions(coalescing=coalescing))
        assume(2 <= count_subproblems(prologue.disjunctions) <= MAX_FLOW_BRANCHES)
        # A horizon cut makes some systems infeasible.  It stays at or above
        # every candidate gap, so big-M (2 * horizon + W) still relaxes a
        # candidate whose indicator is off.
        gaps = [c.min_gap for d in prologue.disjunctions for c in d.candidates]
        prologue.horizon = max(max(gaps), int(prologue.horizon * cut))
        oracle = big_m_milp(dag, W, prologue)
        try:
            solved = _solve_flow(dag, prologue)
        except SchedulingError as error:
            event("infeasible")
            assert "is infeasible (backend flow" in str(error)
            assert oracle.status == 2, oracle.message
            return
        assert oracle.status == 0, oracle.message
        optimum = round(oracle.fun)
        minima = _stage_minima(dag, prologue, optimum)
        event("deferred" if solved is None else "answered")
        if solved is None:
            assert not _is_optimal(dag, prologue, minima, optimum)
            return
        cycles, objective, stats = solved
        assert stats["backend"] == "flow"
        assert objective == optimum
        assert cycles == minima


class TestMirrorTie:
    def test_harris_m_gauss_variant_defers(self):
        """Its two optima are mirror images: neither branch's earliest
        optimum lies below the other's, and the stage minima are not a
        schedule."""
        target = harris_tie_target(480, 320)
        dag = target.dag
        prologue = _constraint_prologue(dag, 480, target.memory_spec, target.options)
        assert count_subproblems(prologue.disjunctions) == 2
        assert _solve_flow(dag, prologue) is None
        schedule = schedule_pipeline(dag, 480, 320, target.memory_spec, target.options)
        assert schedule.solver_stats["backend"] == "highs"
        optimum = schedule.solver_stats["objective"]
        minima = _stage_minima(dag, prologue, optimum, width=480)
        assert not _is_optimal(dag, prologue, minima, optimum)
        assert _is_optimal(dag, prologue, dict(schedule.start_cycles), optimum)
