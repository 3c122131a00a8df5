"""RTL-simulation smoke benchmark: frame vectorization and verdict caching.

Quantifies the two performance claims behind the RTL tier of the verify
service: streaming frames through the elaborated design with whole-frame
NumPy evaluation must beat the per-pixel reference interpreter
(`simulate_design_loop` in `tests/oracles.py`, the differential oracle) by
a healthy margin, and a warm `rtl` verify — a verdict-cache lookup — must
be far cheaper than the cold elaborate-and-simulate it memoises.
"""

from __future__ import annotations

import time

from repro import compile_pipeline
from repro.algorithms import build_algorithm
from repro.api import CompileTarget
from repro.rtl import elaborate_design, generate_verilog, simulate_design
from repro.service import CompileEngine, VerifyEngine, VerifyRequest
from repro.sim.batch import golden_frames

from oracles import simulate_design_loop

#: Small frames: the per-pixel oracle pays Python dispatch per pixel x stage,
#: the vectorized simulator per frame x stage — the gap is the whole point.
W, H = 32, 24


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_vectorized_rtl_sim_is_3x_faster_than_pixel_loop(benchmark):
    """Acceptance: frame-vectorized RTL sim >= 3x the per-pixel reference loop."""
    target = CompileTarget(
        build_algorithm("canny-m"), image_width=W, image_height=H
    )
    schedule = compile_pipeline(target).schedule
    design = elaborate_design(generate_verilog(schedule), schedule.dag)
    inputs = golden_frames(schedule.dag, W, H, frames=1, seed=0)

    def both():
        # Warm both paths once so neither pays first-touch allocation cost.
        vec_result = simulate_design(design, schedule, inputs)
        loop_result = simulate_design_loop(design, schedule, inputs)
        assert vec_result.digest == loop_result.digest
        vectorized = min(
            _timed(lambda: simulate_design(design, schedule, inputs))
            for _ in range(3)
        )
        looped = min(
            _timed(lambda: simulate_design_loop(design, schedule, inputs))
            for _ in range(3)
        )
        return vectorized, looped

    vectorized, looped = benchmark.pedantic(both, rounds=1, iterations=1)
    speedup = looped / vectorized if vectorized > 0 else float("inf")
    print(
        f"\nRTL sim ({W}x{H}, canny-m): vectorized {vectorized * 1000:.1f} ms, "
        f"pixel loop {looped * 1000:.1f} ms ({speedup:.1f}x)"
    )
    assert vectorized * 3 <= looped, (
        f"vectorized RTL sim only {speedup:.1f}x faster than the pixel loop"
    )


def test_warm_rtl_verify_is_5x_faster_than_cold(benchmark):
    """Acceptance: a cached rtl verdict >= 5x faster than the cold run."""

    def cold_and_warm():
        engine = CompileEngine(workers=2, executor="thread")
        try:
            verify = VerifyEngine(engine)
            request = VerifyRequest(
                target=CompileTarget(
                    build_algorithm("unsharp-m"), image_width=W, image_height=H
                ),
                check="rtl",
            )
            cold = _timed(lambda: verify.submit(request))
            # Best of several warm calls: one lookup is microseconds, so a
            # badly-timed scheduler preemption must not decide the ratio.
            warm = min(_timed(lambda: verify.submit(request)) for _ in range(5))
            stats = verify.stats()
        finally:
            engine.shutdown()
        return cold, warm, stats

    cold, warm, stats = benchmark.pedantic(cold_and_warm, rounds=1, iterations=1)
    speedup = cold / warm if warm > 0 else float("inf")
    print(
        f"\nRTL verify cache: cold {cold * 1000:.1f} ms, warm {warm * 1000:.3f} ms "
        f"({speedup:.0f}x, memory hits={stats['served_from_memory']})"
    )
    assert stats["served_from_memory"] == 5 and stats["rtl_simulations"] == 1
    assert warm * 5 <= cold, f"warm rtl verify only {speedup:.1f}x faster than cold"
