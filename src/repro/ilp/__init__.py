"""HiGHS for the scheduling systems the flow kernel defers.

The paper solves its scheduling formulation with Google OR-Tools.  Here the
min-cost-flow kernel (:mod:`repro.core.flow`) solves most systems exactly;
the scheduler builds the rest (no least optimum, or more than
:data:`repro.core.scheduler.MAX_FLOW_BRANCHES` disjunct combinations) as the
big-M model's arrays and solves them with ``scipy.optimize.milp`` (HiGHS)
through :func:`repro.ilp.highs.solve_highs`.
"""
