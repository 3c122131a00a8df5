"""Solver benchmark: the min-cost-flow kernel against the big-M model.

Quantifies the speed claims of the flow kernel; the property suite
(``tests/property/test_prop_flow.py``) pins that it answers with the big-M
model's objective and start cycles:

* A disjunction-free cold solve (denoise-m at 1080p) must run its scheduling
  phase at least 2x faster on the flow kernel than on the big-M model.
* A cold solve with a true disjunction and a least optimum (canny-m and
  harris-m at 1080p, two branches each) must run its scheduling phase at
  least 5x faster on the branched flow kernel than on the big-M model, with
  the same start cycles.

Every measurement isolates the scheduler (``schedule_pipeline``): report
generation and evaluation around it are identical in either mode and would
only dilute the ratio.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.algorithms import build_algorithm
from repro.core import scheduler
from repro.core.scheduler import SchedulerOptions, schedule_pipeline
from repro.memory.spec import asic_dual_port
from repro.trace import collect_spans, flatten_spans

from tests.conftest import harris_tie_target

NEIGHBOR_RES = (480, 320)
TARGET_RES = (1920, 1080)


@contextlib.contextmanager
def big_m_reference(width: int):
    """Cold solves at ``width`` take the big-M model (the path every cold
    solve took before the flow kernel) instead of the flow kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            scheduler,
            "_solve_flow",
            lambda dag, prologue: scheduler._solve_big_m(dag, width, prologue),
        )
        yield


def _solve_seconds(fn) -> float:
    """Run ``fn`` under tracing and return its summed ``solve``-span seconds."""
    trace = collect_spans()
    with trace:
        fn()
    return sum(
        span.seconds for span in flatten_spans(trace.spans) if span.name == "solve"
    )


def _warm_up_highs(spec) -> None:
    """SciPy's first milp call pays a one-time import that must not be billed
    to any measured solve; harris-m's mirror-tie variant has no least
    optimum, so it reaches HiGHS."""
    target = harris_tie_target(*NEIGHBOR_RES)
    schedule = schedule_pipeline(target.dag, *NEIGHBOR_RES, spec, target.options)
    assert schedule.solver_stats["backend"] == "highs"


def test_flow_solve_is_2x_faster_than_big_m(benchmark):
    def flow_and_big_m():
        spec = asic_dual_port()
        options = SchedulerOptions()
        _warm_up_highs(spec)
        dag = build_algorithm("denoise-m")
        with big_m_reference(TARGET_RES[0]):
            big_m = _solve_seconds(lambda: schedule_pipeline(dag, *TARGET_RES, spec, options))
            reference = schedule_pipeline(dag, *TARGET_RES, spec, options)
        flow = _solve_seconds(lambda: schedule_pipeline(dag, *TARGET_RES, spec, options))
        schedule = schedule_pipeline(dag, *TARGET_RES, spec, options)
        assert schedule.solver_stats["backend"] == "flow"
        assert reference.solver_stats["backend"] != "flow"
        assert schedule.start_cycles == reference.start_cycles
        return flow, big_m

    flow, big_m = benchmark.pedantic(flow_and_big_m, rounds=1, iterations=1)
    speedup = big_m / flow if flow > 0 else float("inf")
    print(
        f"\ndenoise-m 1080p cold schedule: big-M {big_m * 1000:.1f} ms, "
        f"flow {flow * 1000:.2f} ms ({speedup:.1f}x)"
    )
    assert flow * 2 <= big_m, f"flow solve only {speedup:.2f}x faster than big-M"


def test_branched_flow_solve_is_5x_faster_than_big_m(benchmark):
    def branched_and_big_m():
        spec = asic_dual_port()
        options = SchedulerOptions()
        _warm_up_highs(spec)
        outcomes = {}
        for algorithm in ("canny-m", "harris-m"):
            dag = build_algorithm(algorithm)

            def solve():
                return schedule_pipeline(dag, *TARGET_RES, spec, options)

            with big_m_reference(TARGET_RES[0]):
                big_m = min(_solve_seconds(solve) for _ in range(3))
                reference = solve()
            flow = min(_solve_seconds(solve) for _ in range(3))
            schedule = solve()
            assert schedule.solver_stats["backend"] == "flow"
            assert schedule.solver_stats["subproblems"] == 2
            assert reference.solver_stats["backend"] == "highs"
            assert schedule.start_cycles == reference.start_cycles
            outcomes[algorithm] = flow, big_m
        return outcomes

    outcomes = benchmark.pedantic(branched_and_big_m, rounds=1, iterations=1)
    for algorithm, (flow, big_m) in outcomes.items():
        speedup = big_m / flow if flow > 0 else float("inf")
        print(
            f"\n{algorithm} 1080p cold schedule: big-M {big_m * 1000:.1f} ms, "
            f"branched flow {flow * 1000:.2f} ms ({speedup:.1f}x)"
        )
        assert flow * 5 <= big_m, (
            f"{algorithm}: branched flow solve only {speedup:.2f}x faster than big-M"
        )
