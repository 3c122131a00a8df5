"""Verification-layer smoke benchmark: batched replay and verdict caching.

Quantifies the two performance claims behind verification-as-a-service: the
whole-batch NumPy replay must beat an equivalent per-frame Python loop by a
healthy margin (the point of vectorizing was amortising dispatch overhead
across frames), and a warm verify — a fingerprint lookup in the verdict
cache — must be far cheaper than the cold replay it memoises.
"""

from __future__ import annotations

import time

from repro.algorithms import build_algorithm
from repro.api import CompileTarget
from repro.service import CompileEngine, VerifyEngine, VerifyRequest
from repro.sim.batch import replay_frames

from oracles import replay_frames_loop

#: Small frames, many of them: the regime the vectorization targets, where
#: per-stage Python dispatch (not element arithmetic) dominates the loop.
W, H = 32, 24
FRAMES = 64


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_batched_replay_is_3x_faster_than_frame_loop(benchmark):
    """Acceptance: vectorized replay >= 3x the per-stage-per-frame loop."""
    dag = build_algorithm("canny-m")  # multi-stage: dispatch overhead dominates

    def both():
        # Warm NumPy/allocator paths once so neither side pays first-touch cost.
        replay_frames(dag, W, H, frames=2, seed=0)
        batched = min(
            _timed(lambda: replay_frames(dag, W, H, frames=FRAMES, seed=0))
            for _ in range(3)
        )
        looped = min(
            _timed(lambda: replay_frames_loop(dag, W, H, frames=FRAMES, seed=0))
            for _ in range(3)
        )
        return batched, looped

    batched, looped = benchmark.pedantic(both, rounds=1, iterations=1)
    speedup = looped / batched if batched > 0 else float("inf")
    print(
        f"\nBatched replay ({FRAMES} frames of {W}x{H}): vectorized "
        f"{batched * 1000:.1f} ms, frame loop {looped * 1000:.1f} ms ({speedup:.1f}x)"
    )
    assert batched * 3 <= looped, (
        f"vectorized replay only {speedup:.1f}x faster than the frame loop"
    )


def test_warm_verify_is_5x_faster_than_cold(benchmark):
    """Acceptance: a cached verdict >= 5x faster than the cold verification."""

    def cold_and_warm():
        engine = CompileEngine(workers=2, executor="thread")
        try:
            verify = VerifyEngine(engine)
            request = VerifyRequest(
                target=CompileTarget(
                    build_algorithm("unsharp-m"), image_width=W, image_height=H
                )
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
        f"\nVerify cache: cold {cold * 1000:.1f} ms, warm {warm * 1000:.3f} ms "
        f"({speedup:.0f}x, memory hits={stats['served_from_memory']})"
    )
    assert stats["served_from_memory"] == 5 and stats["verified"] == 1
    assert warm * 5 <= cold, f"warm verify only {speedup:.1f}x faster than cold"
