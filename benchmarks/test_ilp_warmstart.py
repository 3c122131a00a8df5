"""Solver-acceleration benchmark: warm-started solves and the flow kernel.

Quantifies the speed claims of the warm-start layer and of the min-cost-flow
kernel; the unit suite (``tests/unit/test_warmstart.py``) pins what a
certified schedule keeps of the cold one (all of it where the optimum is
unique):

* A solve warm-started from a cached neighbor (same DAG, other resolution)
  must run its scheduling phase at least 2x faster than a big-M solve — the
  transfer certifies the neighbor's solution optimal and skips the ILP.
* The hinted Fig. 10 sweep (canny-m's 16 designs + denoise-m's 8) must
  schedule at least 1.5x faster than per-variant big-M solves — most
  variants certify against the baseline's solution, the rest solve cold.
* A disjunction-free cold solve (denoise-m at 1080p) must run its scheduling
  phase at least 2x faster on the flow kernel than on the big-M model.
* A cold solve with a true disjunction and a least optimum (canny-m and
  harris-m at 1080p, two branches each) must run its scheduling phase at
  least 5x faster on the branched flow kernel than on the big-M model, with
  the same start cycles.

The warm-start claims are that the certificate pays by skipping the ILP, so
their cold reference is the big-M model even where the program now takes the
flow kernel (:func:`big_m_reference`).  Every measurement isolates the
scheduler (``schedule_pipeline``): report generation and evaluation around it
are identical in either mode and would only dilute the ratio.
"""

from __future__ import annotations

import contextlib
import itertools
import time

import pytest

from repro.algorithms import build_algorithm
from repro.api import CompileTarget
from repro.core import scheduler
from repro.core.scheduler import SchedulerOptions, schedule_pipeline
from repro.core.warmstart import hint_from_schedule
from repro.dse.sweep import _design_target
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


def test_warm_neighbor_solve_is_2x_faster_than_cold(benchmark):
    def cold_and_warm():
        spec = asic_dual_port()
        options = SchedulerOptions()
        outcomes = {}
        _warm_up_highs(spec)
        for algorithm in ("canny-m", "denoise-m"):
            dag = build_algorithm(algorithm)
            hint = hint_from_schedule(
                schedule_pipeline(dag, *NEIGHBOR_RES, spec, options)
            )
            with big_m_reference(TARGET_RES[0]):
                cold = _solve_seconds(
                    lambda: schedule_pipeline(dag, *TARGET_RES, spec, options)
                )
            warm = min(
                _solve_seconds(
                    lambda: schedule_pipeline(
                        dag, *TARGET_RES, spec, options, warm_hint=hint
                    )
                )
                for _ in range(3)
            )
            outcomes[algorithm] = (cold, warm)
        return outcomes

    outcomes = benchmark.pedantic(cold_and_warm, rounds=1, iterations=1)
    for algorithm, (cold, warm) in outcomes.items():
        speedup = cold / warm if warm > 0 else float("inf")
        print(
            f"\n{algorithm} 1080p schedule: big-M {cold * 1000:.1f} ms, "
            f"warm-from-480p {warm * 1000:.2f} ms ({speedup:.1f}x)"
        )
        assert warm * 2 <= cold, (
            f"{algorithm}: warm-started solve only {speedup:.2f}x faster than big-M"
        )


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


def test_hinted_fig10_sweep_is_1_5x_faster_than_sequential(benchmark):
    def sequential_and_hinted():
        spec = asic_dual_port()
        _warm_up_highs(spec)
        sequential_s = hinted_s = 0.0
        variant_counts = {}
        for algorithm in ("canny-m", "denoise-m"):
            dag = build_algorithm(algorithm)
            base = CompileTarget(
                dag=dag, image_width=NEIGHBOR_RES[0], image_height=NEIGHBOR_RES[1],
                memory_spec=spec,
            )
            baseline = schedule_pipeline(
                dag, *NEIGHBOR_RES, spec, SchedulerOptions(coalescing=False)
            )
            configurable = [
                producer for producer, config in baseline.line_buffers.items()
                if config.lines >= 2
            ]
            variant_options = [
                _design_target(base, dict(zip(configurable, combo))).options
                for combo in itertools.product(
                    ("DP", "DPLC"), repeat=len(configurable)
                )
            ]
            variant_counts[algorithm] = len(variant_options)

            with big_m_reference(NEIGHBOR_RES[0]):
                start = time.perf_counter()
                solo = [
                    schedule_pipeline(dag, *NEIGHBOR_RES, spec, options)
                    for options in variant_options
                ]
                sequential_s += time.perf_counter() - start

            start = time.perf_counter()
            hint = hint_from_schedule(baseline)
            hinted = [
                schedule_pipeline(dag, *NEIGHBOR_RES, spec, options, warm_hint=hint)
                for options in variant_options
            ]
            hinted_s += time.perf_counter() - start

            # Identity guard: the ratio is only meaningful if the hinted
            # path produced the exact same designs.
            for cold, warm in zip(solo, hinted):
                assert warm.start_cycles == cold.start_cycles
                assert warm.coalesce_factors == cold.coalesce_factors
        return sequential_s, hinted_s, variant_counts

    sequential_s, hinted_s, variant_counts = benchmark.pedantic(
        sequential_and_hinted, rounds=1, iterations=1
    )
    speedup = sequential_s / hinted_s if hinted_s > 0 else float("inf")
    print(
        f"\nFig. 10 scheduling ({variant_counts['canny-m']} canny-m + "
        f"{variant_counts['denoise-m']} denoise-m designs): sequential "
        f"{sequential_s:.2f}s, hinted {hinted_s:.2f}s ({speedup:.2f}x)"
    )
    assert variant_counts["canny-m"] == 16 and variant_counts["denoise-m"] == 8
    assert hinted_s * 1.5 <= sequential_s, (
        f"hinted sweep only {speedup:.2f}x faster than sequential"
    )
