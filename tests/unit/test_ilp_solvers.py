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


class TestNodeCounters:
    def test_counters_present(self):
        model, _ = scheduling_like_model()
        result = solve_branch_and_bound(model)
        assert result.nodes >= 1
        assert result.pruned >= 0


class TestBackendResolution:
    def test_auto_is_highs_when_available(self):
        from repro.ilp.solver import resolve_backend

        if not is_available():
            pytest.skip("SciPy HiGHS not available")
        assert resolve_backend("auto") == "highs"

    def test_auto_falls_back_to_python_without_highs(self, no_highs):
        from repro.ilp.solver import resolve_backend

        assert resolve_backend("auto") == "python"
        assert available_backends() == ["python"]
        model, _ = knapsack_model()
        result = solve(model)
        assert result.backend == "python"
        assert result.objective == pytest.approx(14.0)

    def test_explicit_names_pass_through(self):
        from repro.ilp.solver import resolve_backend

        assert resolve_backend("python") == "python"
        assert resolve_backend("highs") == "highs"

    def test_unknown_name_raises(self):
        from repro.ilp.solver import resolve_backend

        with pytest.raises(SolverError, match="'auto', 'python', 'highs'"):
            resolve_backend("race")
