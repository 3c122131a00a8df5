"""Property-based tests for the ILP substrate.

The key invariant: the pure-Python branch-and-bound backend and the SciPy
HiGHS backend are both exact solvers, so on any (bounded, feasible) random
integer program they must agree on the optimal objective value, and the
returned assignment must be feasible for the model it solves.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ilp import highs
from repro.ilp.expr import LinExpr
from repro.ilp.model import Model, SolveStatus
from repro.ilp.simplex import solve_lp
from repro.ilp.solver import available_backends, solve


def _as_linexpr(value, fallback_variable):
    if isinstance(value, LinExpr):
        return value
    return fallback_variable * 0


@st.composite
def random_bounded_ilp(draw):
    """A small random ILP with bounded integer variables and <= constraints."""
    num_vars = draw(st.integers(2, 4))
    num_cons = draw(st.integers(1, 4))
    model = Model("random")
    variables = [
        model.add_integer_var(f"x{i}", lb=0, ub=draw(st.integers(1, 8))) for i in range(num_vars)
    ]
    for c in range(num_cons):
        coeffs = [draw(st.integers(-3, 3)) for _ in range(num_vars)]
        rhs = draw(st.integers(0, 20))
        expr = _as_linexpr(
            sum(coeff * var for coeff, var in zip(coeffs, variables) if coeff), variables[0]
        )
        model.add_constraint(expr <= rhs, name=f"c{c}")
    objective_coeffs = [draw(st.integers(-4, 4)) for _ in range(num_vars)]
    objective = _as_linexpr(
        sum(coeff * var for coeff, var in zip(objective_coeffs, variables) if coeff), variables[0]
    )
    model.set_objective(objective)
    return model


class TestBackendsAgree:
    @settings(max_examples=40, deadline=None)
    @given(random_bounded_ilp())
    def test_python_backend_matches_highs(self, model):
        python_result = solve(model, backend="python")
        assert python_result.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)
        if not highs.is_available():
            pytest.skip("HiGHS unavailable")
        highs_result = solve(model, backend="highs")
        assert python_result.status == highs_result.status
        if python_result.status is SolveStatus.OPTIMAL:
            assert python_result.objective == pytest.approx(highs_result.objective, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(random_bounded_ilp())
    def test_solution_is_feasible_and_integral(self, model):
        result = solve(model, backend="python")
        if result.status is not SolveStatus.OPTIMAL:
            return
        assert model.is_feasible(result.values)
        for var, value in result.values.items():
            if var.integer:
                assert value == int(value)

    @settings(max_examples=40, deadline=None)
    @given(random_bounded_ilp())
    def test_lp_relaxation_is_a_lower_bound(self, model):
        result = solve(model, backend="python")
        if result.status is not SolveStatus.OPTIMAL:
            return
        from repro.ilp.branch_and_bound import _model_matrices

        c, a_ub, b_ub, a_eq, b_eq, lb, ub = _model_matrices(model)
        relax = solve_lp(c, a_ub, b_ub, a_eq, b_eq, lb, ub)
        assert relax.status == "optimal"
        assert relax.objective <= result.objective + 1e-6


class TestSimplexProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_simplex_matches_scipy(self, data):
        rng_seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(rng_seed)
        n = data.draw(st.integers(2, 4))
        m = data.draw(st.integers(1, 4))
        c = rng.integers(0, 5, size=n).astype(float)
        a_ub = rng.integers(-2, 4, size=(m, n)).astype(float)
        b_ub = rng.integers(1, 25, size=m).astype(float)
        ours = solve_lp(c, a_ub, b_ub, None, None, np.zeros(n), np.full(n, np.inf))

        from scipy.optimize import linprog

        reference = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * n, method="highs")
        if reference.status == 2:
            assert ours.status == "infeasible"
        elif reference.status == 3:
            assert ours.status == "unbounded"
        else:
            assert ours.status == "optimal"
            assert ours.objective == pytest.approx(reference.fun, abs=1e-6)


class TestWarmStartParity:
    """Warm starts must never change the answer."""

    @pytest.mark.parametrize("reference", available_backends())
    @settings(max_examples=20, deadline=None)
    @given(random_bounded_ilp())
    def test_warm_seeded_python_matches_cold(self, reference, model):
        """Branch-and-bound seeded with an optimum (its own, or HiGHS's when
        installed) returns that optimum's objective."""
        from repro.ilp.branch_and_bound import solve_branch_and_bound
        from repro.ilp.model import WarmStart

        cold = solve(model, backend=reference)
        if cold.status is not SolveStatus.OPTIMAL:
            return
        warm = solve_branch_and_bound(
            model,
            warm_start=WarmStart(values=dict(cold.values), objective=cold.objective),
        )
        assert warm.status is SolveStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
        assert model.is_feasible(warm.values)
        assert warm.warm_start in ("incumbent", "seeded")
