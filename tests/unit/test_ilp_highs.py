"""Unit tests for the HiGHS call on plain arrays (:mod:`repro.ilp.highs`).

The scheduler hands :func:`~repro.ilp.highs.solve_highs` its big-M model as
the arrays ``scipy.optimize.milp`` reads.  These tests solve small MILPs of
known optimum through it, and check how it maps SciPy's answers (status,
time-limit gap, node count) with a stand-in ``milp``.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from repro.ilp import highs
from repro.ilp.highs import MILP, solve_highs
from repro.ilp.solver import resolve_backend

INF = np.inf


def milp(c, rows, row_lower, row_upper, lower, upper, integrality=None):
    """A :class:`MILP` from nested lists; every column integer by default."""
    c = np.asarray(c, dtype=np.float64)
    if integrality is None:
        integrality = np.ones(len(c))
    return MILP(
        c=c,
        rows=np.asarray(rows, dtype=np.float64).reshape(len(row_lower), len(c)),
        row_lower=np.asarray(row_lower, dtype=np.float64),
        row_upper=np.asarray(row_upper, dtype=np.float64),
        lower=np.asarray(lower, dtype=np.float64),
        upper=np.asarray(upper, dtype=np.float64),
        integrality=np.asarray(integrality, dtype=np.int64),
    )


def knapsack():
    """max 10a + 6b + 4c s.t. a+b+c <= 2, 5a+4b+3c <= 8, binary (a = c = 1, 14)."""
    return milp([-10, -6, -4], [[1, 1, 1], [5, 4, 3]], [-INF, -INF], [2, 8], [0] * 3, [1] * 3)


def scheduling_like():
    """A miniature of the scheduler's model: integer start cycles with gaps."""
    return milp(
        [0, 1, 1],
        [[-1, 1, 0], [0, -1, 1], [-1, 0, 1]],
        [65, 65, 192],
        [INF] * 3,
        [0] * 3,
        [1000] * 3,
    )


class TestSolves:
    def test_knapsack_as_a_negated_minimisation(self):
        problem = knapsack()
        status, x, _, _ = solve_highs(problem, 60.0)
        assert status == "optimal"
        assert x.tolist() == [1.0, 0.0, 1.0]
        assert problem.c @ x == -14.0

    def test_scheduling_like(self):
        problem = scheduling_like()
        status, x, _, _ = solve_highs(problem, 60.0)
        assert status == "optimal"
        assert x.tolist() == [0.0, 65.0, 192.0]
        assert problem.c @ x == 257.0

    def test_equality_rows_hold_exactly(self):
        """An anchor row is an equality (``row_lower == row_upper``)."""
        problem = milp([1, 2], [[1, 1]], [5], [5], [0, 0], [INF, INF])
        status, x, _, _ = solve_highs(problem, 60.0)
        assert status == "optimal"
        assert x.tolist() == [5.0, 0.0]

    def test_fractional_lp_optimum_is_not_the_milp_optimum(self):
        """max x + 2y s.t. 2x + 3y <= 7: the LP reaches 14/3 at y = 7/3, the
        MILP only 4."""
        problem = milp([-1, -2], [[2, 3]], [-INF], [7], [0, 0], [INF, INF])
        status, x, _, _ = solve_highs(problem, 60.0)
        assert status == "optimal"
        assert problem.c @ x == -4.0
        assert np.array_equal(x, np.round(x))

    def test_continuous_columns_are_not_rounded(self):
        """min 2x + y s.t. x + y >= 3.5, x integer and y continuous."""
        problem = milp([2, 1], [[1, 1]], [3.5], [INF], [0, 0], [10, 10], integrality=[1, 0])
        status, x, _, _ = solve_highs(problem, 60.0)
        assert status == "optimal"
        assert x[0] == 0.0
        assert x[1] == pytest.approx(3.5)
        assert problem.c @ x == pytest.approx(3.5)

    def test_infeasible(self):
        problem = milp([1], [[1]], [5], [INF], [0], [3])
        status, x, message, _ = solve_highs(problem, 60.0)
        assert (status, x) == ("infeasible", None)
        assert "infeasible" in message

    def test_unbounded_gives_no_solution(self):
        """HiGHS reports an unbounded MILP as unbounded, or as "unbounded or
        infeasible" (an error); either way there is no solution."""
        problem = milp([-1], [[1]], [0], [INF], [0], [INF])
        status, x, message, _ = solve_highs(problem, 60.0)
        assert status in ("unbounded", "error")
        assert x is None
        assert "unbounded" in message


@pytest.fixture
def answer(monkeypatch):
    """Make ``scipy.optimize.milp`` record its call and return the fields
    given to ``answer(...)`` instead of solving."""
    calls = []
    result = SimpleNamespace()

    def fake(c, **kwargs):
        calls.append(dict(kwargs, c=c))
        return result

    def set_result(**fields):
        result.__dict__.clear()
        result.__dict__.update({"x": None, "message": "stand-in"}, **fields)
        return calls

    monkeypatch.setattr(scipy.optimize, "milp", fake)
    return set_result


class TestAnswerMapping:
    def test_time_limit_reports_the_gap(self, answer):
        answer(status=1, mip_gap=0.25, mip_node_count=17)
        assert solve_highs(scheduling_like(), 2.0) == (
            "error", None, "time limit of 2 s reached at a 25.0% gap", 17,
        )

    @pytest.mark.parametrize("gap", [None, INF, float("nan")], ids=["none", "inf", "nan"])
    def test_time_limit_without_an_incumbent(self, answer, gap):
        answer(status=1, mip_gap=gap)
        status, x, message, _ = solve_highs(scheduling_like(), 2.5)
        assert (status, x) == ("error", None)
        assert message == "time limit of 2.5 s reached with no feasible solution"

    @pytest.mark.parametrize(
        "code, status", [(2, "infeasible"), (3, "unbounded"), (4, "error")]
    )
    def test_status_codes(self, answer, code, status):
        answer(status=code, message="from HiGHS")
        assert solve_highs(scheduling_like(), 60.0) == (status, None, "from HiGHS", 0)

    def test_optimal_status_without_a_point_is_an_error(self, answer):
        answer(status=0)
        assert solve_highs(scheduling_like(), 60.0)[:2] == ("error", None)

    def test_integer_columns_are_rounded_and_continuous_ones_kept(self, answer):
        problem = milp([1, 1], [[1, 1]], [0], [INF], [0, 0], [9, 9], integrality=[1, 0])
        answer(status=0, x=np.array([2.9999999, 1.25]), mip_node_count=3)
        status, x, _, nodes = solve_highs(problem, 60.0)
        assert status == "optimal"
        assert x.tolist() == [3.0, 1.25]
        assert nodes == 3

    @pytest.mark.parametrize("count", [None, "missing"])
    def test_node_count_defaults_to_zero(self, answer, count):
        fields = {} if count == "missing" else {"mip_node_count": count}
        answer(status=2, **fields)
        assert solve_highs(scheduling_like(), 60.0)[3] == 0

    def test_hands_milp_the_arrays_and_the_time_limit(self, answer):
        problem = scheduling_like()
        calls = answer(status=2)
        solve_highs(problem, 7.5)
        (call,) = calls
        assert call["c"] is problem.c
        assert call["integrality"] is problem.integrality
        assert call["options"] == {"time_limit": 7.5}
        bounds = call["bounds"]
        assert np.array_equal(bounds.lb, problem.lower)
        assert np.array_equal(bounds.ub, problem.upper)
        (constraint,) = call["constraints"]
        assert np.array_equal(constraint.A, problem.rows)
        assert np.array_equal(constraint.lb, problem.row_lower)
        assert np.array_equal(constraint.ub, problem.row_upper)


class TestBackendName:
    def test_highs_is_available(self):
        assert highs.is_available()

    @pytest.mark.parametrize("asked", ["auto", "highs"])
    def test_every_request_resolves_to_highs(self, asked):
        assert resolve_backend(asked) == "highs"
