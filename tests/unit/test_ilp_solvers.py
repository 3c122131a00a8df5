"""Unit tests for the branch-and-bound and HiGHS MILP backends and the facade."""

import pytest

from repro.errors import InfeasibleError, SolverError, UnboundedError
from repro.ilp.branch_and_bound import solve_branch_and_bound
from repro.ilp.highs import is_available, solve_highs
from repro.ilp.model import Model, SolveStatus
from repro.ilp.solver import available_backends, solve


def knapsack_model():
    """max 10a + 6b + 4c s.t. a+b+c<=2, 5a+4b+3c<=8, binary (optimum: a=c=1, value 14)."""
    model = Model("knapsack", sense="max")
    a = model.add_binary_var("a")
    b = model.add_binary_var("b")
    c = model.add_binary_var("c")
    model.add_constraint(a + b + c <= 2)
    model.add_constraint(5 * a + 4 * b + 3 * c <= 8)
    model.set_objective(10 * a + 6 * b + 4 * c)
    return model, (a, b, c)


def scheduling_like_model():
    """A miniature version of the paper's ILP: integer delays with gaps."""
    model = Model("mini-schedule")
    s1 = model.add_integer_var("s1", lb=0, ub=1000)
    s2 = model.add_integer_var("s2", lb=0, ub=1000)
    s3 = model.add_integer_var("s3", lb=0, ub=1000)
    model.add_constraint(s2 - s1 >= 65)
    model.add_constraint(s3 - s2 >= 65)
    model.add_constraint(s3 - s1 >= 192)
    model.set_objective(s2 + s3)
    return model, (s1, s2, s3)


class TestBranchAndBound:
    def test_knapsack(self):
        model, (a, b, c) = knapsack_model()
        result = solve_branch_and_bound(model)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(14.0)
        assert result.value(a) == 1 and result.value(b) == 0 and result.value(c) == 1

    def test_scheduling_like(self):
        model, (s1, s2, s3) = scheduling_like_model()
        result = solve_branch_and_bound(model)
        assert result.status is SolveStatus.OPTIMAL
        assert result.value(s1) == 0
        assert result.value(s2) == 65
        assert result.value(s3) == 192

    def test_infeasible(self):
        model = Model()
        x = model.add_integer_var("x", lb=0, ub=3)
        model.add_constraint(x >= 5)
        result = solve_branch_and_bound(model)
        assert result.status is SolveStatus.INFEASIBLE

    def test_fractional_lp_integer_rounding(self):
        # LP optimum is fractional; MILP optimum differs.
        model = Model(sense="max")
        x = model.add_integer_var("x", lb=0)
        y = model.add_integer_var("y", lb=0)
        model.add_constraint(2 * x + 3 * y <= 7)
        model.set_objective(x + 2 * y)
        result = solve_branch_and_bound(model)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(4.0)

    def test_unbounded(self):
        model = Model(sense="max")
        x = model.add_integer_var("x", lb=0)
        model.set_objective(x + 0)
        result = solve_branch_and_bound(model)
        assert result.status is SolveStatus.UNBOUNDED

    def test_mixed_integer_continuous(self):
        model = Model()
        x = model.add_integer_var("x", lb=0, ub=10)
        y = model.add_var("y", lb=0.0, ub=10.0)
        model.add_constraint(x + y >= 3.5)
        model.set_objective(2 * x + y)
        result = solve_branch_and_bound(model)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(3.5)
        assert result.value(x) == 0


@pytest.mark.skipif(not is_available(), reason="SciPy HiGHS not available")
class TestHighs:
    def test_knapsack(self):
        model, (a, b, c) = knapsack_model()
        result = solve_highs(model)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(14.0)

    def test_infeasible(self):
        model = Model()
        x = model.add_integer_var("x", lb=0, ub=3)
        model.add_constraint(x >= 5)
        assert solve_highs(model).status is SolveStatus.INFEASIBLE

    def test_scheduling_like(self):
        model, (s1, s2, s3) = scheduling_like_model()
        result = solve_highs(model)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(257.0)


class TestFacade:
    def test_available_backends_contains_python(self):
        assert "python" in available_backends()

    def test_auto_backend(self):
        model, _ = knapsack_model()
        result = solve(model, backend="auto")
        assert result.status is SolveStatus.OPTIMAL

    def test_unknown_backend(self):
        model, _ = knapsack_model()
        with pytest.raises(SolverError):
            solve(model, backend="gurobi")

    def test_raise_on_infeasible(self):
        model = Model()
        x = model.add_integer_var("x", lb=0, ub=3)
        model.add_constraint(x >= 5)
        with pytest.raises(InfeasibleError):
            solve(model, backend="python", raise_on_failure=True)

    def test_raise_on_unbounded(self):
        model = Model(sense="max")
        x = model.add_integer_var("x", lb=0)
        model.set_objective(x + 0)
        with pytest.raises(UnboundedError):
            solve(model, backend="python", raise_on_failure=True)

    def test_backends_agree(self):
        model, _ = scheduling_like_model()
        python_result = solve(model, backend="python")
        assert python_result.status is SolveStatus.OPTIMAL
        if is_available():
            highs_result = solve(model, backend="highs")
            assert highs_result.objective == pytest.approx(python_result.objective)


class TestNodeOrdering:
    def test_equal_priority_nodes_stay_out_of_array_comparison(self):
        # Regression: _Node used to include its numpy bound arrays in the
        # dataclass ordering, so two nodes tying on (bound, tiebreak) made
        # heapq compare arrays elementwise and raise. The arrays must be
        # excluded from comparisons entirely.
        import heapq

        import numpy as np

        from repro.ilp.branch_and_bound import _Node

        lb, ub = np.zeros(3), np.ones(3)
        a = _Node(bound=1.0, tiebreak=7, lb=lb, ub=ub)
        b = _Node(bound=1.0, tiebreak=7, lb=lb + 1.0, ub=ub + 1.0)
        assert not (a < b) and not (b < a)  # ties resolve without the arrays
        heap = []
        heapq.heappush(heap, _Node(bound=1.0, tiebreak=0, lb=lb.copy(), ub=ub.copy()))
        heapq.heappush(heap, _Node(bound=1.0, tiebreak=1, lb=lb.copy(), ub=ub.copy()))
        assert heapq.heappop(heap).tiebreak == 0


class TestWarmStarts:
    def test_optimal_hint_returned_as_incumbent(self):
        from repro.ilp.model import WarmStart

        model, (a, b, c) = knapsack_model()
        result = solve_branch_and_bound(
            model, warm_start=WarmStart(values={"a": 1.0, "b": 0.0, "c": 1.0})
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(14.0)
        assert result.value(a) == 1 and result.value(b) == 0 and result.value(c) == 1
        assert result.warm_start == "incumbent"  # nothing strictly better exists

    def test_suboptimal_hint_is_seeded_then_beaten(self):
        from repro.ilp.model import WarmStart

        model, (a, b, c) = knapsack_model()
        result = solve_branch_and_bound(
            model, warm_start=WarmStart(values={a: 0.0, b: 1.0, c: 0.0})
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(14.0)
        assert result.warm_start == "seeded"

    @pytest.mark.parametrize(
        "backend, outcome",
        [("python", "rejected"), ("highs", "none")],  # HiGHS ignores seeds
    )
    def test_infeasible_hint_is_rejected(self, backend, outcome):
        from repro.ilp.model import WarmStart

        if backend not in available_backends():
            pytest.skip("SciPy HiGHS not available")
        model, _ = knapsack_model()
        result = solve(
            model, backend=backend, warm_start=WarmStart(values={"a": 1.0, "b": 1.0, "c": 1.0})
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(14.0)
        assert result.warm_start == outcome

    def test_incomplete_hint_is_rejected(self):
        from repro.ilp.model import WarmStart

        model, _ = knapsack_model()
        result = solve_branch_and_bound(model, warm_start=WarmStart(values={"a": 1.0}))
        assert result.warm_start == "rejected"
        assert result.objective == pytest.approx(14.0)

    def test_counters_present(self):
        model, _ = scheduling_like_model()
        result = solve_branch_and_bound(model)
        assert result.nodes >= 1
        assert result.pruned >= 0
        assert result.warm_start == "none"


class TestBackendResolution:
    def test_env_var_drives_auto(self, monkeypatch):
        from repro.ilp.solver import BACKEND_ENV_VAR, resolve_backend

        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert resolve_backend("auto") == "python"

    def test_explicit_backend_beats_env(self, monkeypatch):
        from repro.ilp.solver import BACKEND_ENV_VAR, resolve_backend

        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert resolve_backend("highs") == "highs"

    def test_unknown_env_value_raises(self, monkeypatch):
        from repro.ilp.solver import BACKEND_ENV_VAR, resolve_backend

        monkeypatch.setenv(BACKEND_ENV_VAR, "gurobi")
        with pytest.raises(SolverError):
            resolve_backend("auto")

    def test_race_backend_is_unknown(self, monkeypatch):
        """``race`` fails when the target is built, so neither a cache hit
        nor a warm-certified neighbour solve can let it through."""
        from repro.api import CompileTarget
        from repro.core.scheduler import SchedulerOptions
        from repro.ilp.solver import BACKEND_ENV_VAR
        from repro.service import CompileEngine

        from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain

        known = "'auto', 'python', 'highs'"
        target = CompileTarget(build_chain(3), image_width=TEST_WIDTH, image_height=TEST_HEIGHT)
        with pytest.raises(SolverError, match=known):
            CompileTarget(
                target.dag,
                image_width=TEST_WIDTH,
                image_height=TEST_HEIGHT,
                options=SchedulerOptions(backend="race"),
            )
        with CompileEngine(workers=1, executor="inline") as engine:
            assert engine.submit(target).ok  # cached, and a neighbour hint
            monkeypatch.setenv(BACKEND_ENV_VAR, "race")
            for width in (TEST_WIDTH, TEST_WIDTH + 2):  # cache hit, warm-certified
                with pytest.raises(SolverError, match=known):
                    engine.submit(target.with_resolution(width, TEST_HEIGHT))


class TestCompound:
    def _models(self):
        first, _ = scheduling_like_model()
        second, _ = knapsack_model()
        # Compound models must share a sense; flip the knapsack to min of the
        # negated objective so the pair is mergeable.
        negated = Model("neg-knapsack")
        a = negated.add_binary_var("a")
        b = negated.add_binary_var("b")
        c = negated.add_binary_var("c")
        negated.add_constraint(a + b + c <= 2)
        negated.add_constraint(5 * a + 4 * b + 3 * c <= 8)
        negated.set_objective(-10 * a - 6 * b - 4 * c)
        return first, negated

    def test_merge_solve_split_matches_solo(self):
        from repro.ilp.compound import merge_models, solve_compound

        first, second = self._models()
        compound, blocks = merge_models([first, second])
        assert compound.num_variables == first.num_variables + second.num_variables
        combined, per_block = solve_compound(compound, blocks, backend="python")
        assert combined.status is SolveStatus.OPTIMAL
        solo = [solve(first, backend="python"), solve(second, backend="python")]
        assert combined.objective == pytest.approx(sum(r.objective for r in solo))
        for block_result, solo_result in zip(per_block, solo):
            assert block_result.objective == pytest.approx(solo_result.objective)

    def test_split_block_restores_names(self):
        from repro.ilp.compound import merge_models, split_block

        first, second = self._models()
        compound, blocks = merge_models([first, second])
        sub = split_block(compound, blocks[0])
        assert [var.name for var in sub.variables] == [var.name for var in first.variables]
        assert sub.num_constraints == first.num_constraints

    def test_mixed_sense_rejected(self):
        from repro.errors import ILPError
        from repro.ilp.compound import merge_models

        first, _ = scheduling_like_model()
        second, _ = knapsack_model()  # max-sense
        with pytest.raises(ILPError):
            merge_models([first, second])

    def test_cross_block_coupling_rejected(self):
        from repro.errors import ILPError
        from repro.ilp.compound import merge_models, solve_compound

        first, second = self._models()
        compound, blocks = merge_models([first, second])
        x0 = compound.variables[0]
        y0 = blocks[1].variables[0]
        compound.add_constraint(x0 + y0 >= 0)
        with pytest.raises(ILPError):
            solve_compound(compound, blocks)

    def test_warm_start_count_mismatch_rejected(self):
        from repro.errors import ILPError
        from repro.ilp.compound import merge_models, solve_compound

        first, second = self._models()
        compound, blocks = merge_models([first, second])
        with pytest.raises(ILPError):
            solve_compound(compound, blocks, warm_starts=[None])

    def test_infeasible_block_poisons_combined_status(self):
        from repro.ilp.compound import merge_models, solve_compound

        feasible, _ = scheduling_like_model()
        infeasible = Model("impossible")
        x = infeasible.add_integer_var("x", lb=0, ub=3)
        infeasible.add_constraint(x >= 5)
        infeasible.set_objective(x + 0)
        compound, blocks = merge_models([feasible, infeasible])
        combined, per_block = solve_compound(compound, blocks, backend="python")
        assert combined.status is SolveStatus.INFEASIBLE
        assert combined.objective is None
        assert per_block[0].status is SolveStatus.OPTIMAL
        assert per_block[1].status is SolveStatus.INFEASIBLE
