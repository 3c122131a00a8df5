"""Property tests of the HiGHS call on plain arrays (:mod:`repro.ilp.highs`).

On small random integer programs whose columns are boxed to a few values,
the feasible points can be listed outright, so an exhaustive search is an
exact oracle: :func:`~repro.ilp.highs.solve_highs` must reach its verdict and
its optimum, return a feasible integral point, and never beat the LP
relaxation (SciPy's ``linprog``).
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import Phase, given, settings, strategies as st
from scipy.optimize import linprog

from repro.ilp.highs import MILP, solve_highs

TIME_LIMIT_S = 60.0


@st.composite
def boxed_milps(draw) -> MILP:
    """2-4 integer columns in [0, 1..6], 1-4 rows of coefficients -3..3,
    each row an upper bound, a lower bound or an equality."""
    columns = draw(st.integers(2, 4))
    count = draw(st.integers(1, 4))
    coefficients = st.lists(st.integers(-3, 3), min_size=columns, max_size=columns)
    rows = np.array([draw(coefficients) for _ in range(count)], dtype=np.float64)
    row_lower = np.full(count, -np.inf)
    row_upper = np.full(count, np.inf)
    for row in range(count):
        kind = draw(st.sampled_from(["le", "ge", "eq"]))
        value = float(draw(st.integers(-6, 20)))
        if kind in ("le", "eq"):
            row_upper[row] = value
        if kind in ("ge", "eq"):
            row_lower[row] = value
    upper = np.array(
        [draw(st.integers(1, 6)) for _ in range(columns)], dtype=np.float64
    )
    c = np.array(draw(coefficients), dtype=np.float64)
    return MILP(
        c=c,
        rows=rows,
        row_lower=row_lower,
        row_upper=row_upper,
        lower=np.zeros(columns),
        upper=upper,
        integrality=np.ones(columns, dtype=np.int64),
    )


def exhaustive_optimum(problem: MILP) -> float | None:
    """The least ``c @ x`` over every feasible integer point, or ``None``."""
    ranges = [range(int(high) + 1) for high in problem.upper]
    points = np.array(list(itertools.product(*ranges)), dtype=np.float64)
    products = points @ problem.rows.T
    feasible = np.all(
        (products >= problem.row_lower) & (products <= problem.row_upper), axis=1
    )
    if not feasible.any():
        return None
    return float((points[feasible] @ problem.c).min())


def is_feasible(problem: MILP, x: np.ndarray) -> bool:
    products = problem.rows @ x
    return bool(
        np.all(products >= problem.row_lower - 1e-9)
        and np.all(products <= problem.row_upper + 1e-9)
        and np.all(x >= problem.lower)
        and np.all(x <= problem.upper)
    )


SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.generate)
)


class TestBoxedIntegerPrograms:
    @SETTINGS
    @given(boxed_milps())
    def test_matches_exhaustive_search(self, problem):
        status, x, message, _ = solve_highs(problem, TIME_LIMIT_S)
        optimum = exhaustive_optimum(problem)
        if optimum is None:
            assert (status, x) == ("infeasible", None), message
            return
        assert status == "optimal", message
        assert problem.c @ x == optimum

    @SETTINGS
    @given(boxed_milps())
    def test_solution_is_feasible_and_integral(self, problem):
        status, x, _, _ = solve_highs(problem, TIME_LIMIT_S)
        if status != "optimal":
            return
        assert np.array_equal(x, np.round(x))
        assert is_feasible(problem, x)

    @SETTINGS
    @given(boxed_milps())
    def test_lp_relaxation_is_a_lower_bound(self, problem):
        status, x, _, _ = solve_highs(problem, TIME_LIMIT_S)
        if status != "optimal":
            return
        finite_upper = np.isfinite(problem.row_upper)
        finite_lower = np.isfinite(problem.row_lower)
        relaxation = linprog(
            problem.c,
            A_ub=np.vstack([problem.rows[finite_upper], -problem.rows[finite_lower]]),
            b_ub=np.concatenate([problem.row_upper[finite_upper], -problem.row_lower[finite_lower]]),
            bounds=list(zip(problem.lower, problem.upper)),
            method="highs",
        )
        assert relaxation.status == 0, relaxation.message
        assert relaxation.fun <= problem.c @ x + 1e-9
