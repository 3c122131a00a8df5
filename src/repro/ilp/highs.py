"""HiGHS, through ``scipy.optimize.milp``, on a MILP given as plain arrays.

HiGHS plays the role OR-Tools plays in the paper's artifact.  The scheduler
builds its big-M model as the arrays ``milp`` reads
(:func:`repro.core.scheduler._build_big_m`); SciPy's optimiser is imported
only when a solve reaches HiGHS.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class MILP(NamedTuple):
    """Minimise ``c @ x`` subject to ``row_lower <= rows @ x <= row_upper``
    and ``lower <= x <= upper``, with ``x[j]`` integer where
    ``integrality[j]`` is 1.  ``rows`` is a dense float64 matrix."""

    c: np.ndarray
    rows: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray


def is_available() -> bool:
    try:  # pragma: no cover - trivial import probe
        from scipy.optimize import milp  # noqa: F401

        return True
    except Exception:  # pragma: no cover
        return False


def solve_highs(problem: MILP, time_limit: float) -> tuple[str, np.ndarray | None, str, int]:
    """Solve ``problem`` on HiGHS for at most ``time_limit`` seconds.

    Returns ``(status, x, message, nodes)``: ``status`` is ``"optimal"``
    (``x`` the solution, integer columns rounded), ``"infeasible"``,
    ``"unbounded"`` or ``"error"`` (``x`` is ``None``; at the time limit the
    message gives the gap left), and ``nodes`` HiGHS's branch-and-bound node
    count.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    result = milp(
        c=problem.c,
        constraints=[LinearConstraint(problem.rows, problem.row_lower, problem.row_upper)],
        bounds=Bounds(problem.lower, problem.upper),
        integrality=problem.integrality,
        options={"time_limit": time_limit},
    )
    nodes = int(getattr(result, "mip_node_count", 0) or 0)
    # scipy status codes: 0 optimal, 1 iteration/time limit, 2 infeasible, 3 unbounded.
    if result.status == 1:
        # The relative gap left between the incumbent and the best bound.
        gap = getattr(result, "mip_gap", None)
        if gap is None or not math.isfinite(gap):
            message = f"time limit of {time_limit:g} s reached with no feasible solution"
        else:
            message = f"time limit of {time_limit:g} s reached at a {gap:.1%} gap"
        return "error", None, message, nodes
    if result.status != 0 or result.x is None:
        status = {2: "infeasible", 3: "unbounded"}.get(result.status, "error")
        return status, None, result.message, nodes
    x = np.where(problem.integrality == 1, np.round(result.x), result.x)
    return "optimal", x, result.message, nodes
