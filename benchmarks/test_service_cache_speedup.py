"""Service-layer smoke benchmark: compile cache and engine-driven DSE.

Quantifies the serving-layer claims on top of the paper's Sec. 8.2 compile
times: a warm-cache compile must be at least an order of magnitude faster
than a cold one (it is a hash lookup instead of an ILP solve), and the
engine-driven Fig. 10 sweep must match the serial sweep exactly while
reusing the baseline compile through the cache.
"""

from __future__ import annotations

import os
import time

from repro.algorithms import build_algorithm
from repro.api import CompileTarget
from repro.dse.sweep import sweep_memory_configurations
from repro.service import CompileEngine

W, H = 480, 320


def test_warm_cache_compile_is_10x_faster_than_cold(benchmark):
    def cold_and_warm():
        engine = CompileEngine()
        target = CompileTarget(build_algorithm("canny-m"), image_width=W, image_height=H)
        start = time.perf_counter()
        engine.compile(target)
        cold = time.perf_counter() - start
        # Best of several warm calls: a single lookup is microseconds, so one
        # badly-timed scheduler preemption must not decide the ratio.
        warm = min(_timed(lambda: engine.compile(target)) for _ in range(5))
        return cold, warm, engine.cache.stats.snapshot()

    cold, warm, stats = benchmark.pedantic(cold_and_warm, rounds=1, iterations=1)
    speedup = cold / warm if warm > 0 else float("inf")
    print(
        f"\nService cache: cold compile {cold * 1000:.1f} ms, warm {warm * 1000:.3f} ms "
        f"({speedup:.0f}x, hits={stats.hits}, misses={stats.misses})"
    )
    assert stats.hits == 5 and stats.misses == 1
    assert warm * 10 <= cold, f"warm-cache compile only {speedup:.1f}x faster than cold"


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_engine_sweep_matches_serial_and_reuses_baseline(benchmark):
    """The Fig. 10 sweeps (8-design denoise-m, 16-design canny-m) via the engine."""

    def sweeps():
        outcomes = {}
        for algorithm in ("denoise-m", "canny-m"):
            start = time.perf_counter()
            serial = sweep_memory_configurations(
                CompileTarget(build_algorithm(algorithm), image_width=W, image_height=H),
            )
            serial_s = time.perf_counter() - start
            engine = CompileEngine(workers=4)
            start = time.perf_counter()
            parallel = sweep_memory_configurations(
                CompileTarget(build_algorithm(algorithm), image_width=W, image_height=H),
                engine=engine,
            )
            engine_s = time.perf_counter() - start
            engine.shutdown()
            outcomes[algorithm] = (
                serial,
                parallel,
                serial_s,
                engine_s,
                engine.cache.stats.snapshot(),
            )
        return outcomes

    outcomes = benchmark.pedantic(sweeps, rounds=1, iterations=1)
    for algorithm, (serial, parallel, serial_s, engine_s, stats) in outcomes.items():
        print(
            f"\n{algorithm} sweep ({len(serial)} designs): serial {serial_s:.2f}s, "
            f"engine {engine_s:.2f}s ({serial_s / engine_s:.2f}x), "
            f"cache hits={stats.hits} misses={stats.misses}"
        )
        assert [p.label for p in serial] == [p.label for p in parallel]
        assert [p.area_mm2 for p in serial] == [p.area_mm2 for p in parallel]
        assert [p.power_mw for p in serial] == [p.power_mw for p in parallel]
        # The all-DP configuration is served from the baseline's cache entry...
        assert stats.hits >= 1
        # ...so the engine path runs at most 2^k ILP passes where the serial
        # path runs 2^k as well (baseline + 2^k - 1): identical solver work
        # plus parallel overlap means no systematic slowdown.
        assert stats.misses <= len(serial)
        if (os.cpu_count() or 1) >= 4:
            # Wall-clock ratios are only meaningful with real parallelism; on
            # 1-2 vCPU runners thread scheduling noise dominates, so there the
            # check stays result-equality + cache counters only.
            assert engine_s < serial_s * 1.5, "engine sweep should not be slower than serial"
    # The paper's example: four configurable canny-m stages give 16 designs.
    assert len(outcomes["canny-m"][0]) == 16
    assert len(outcomes["denoise-m"][0]) == 8
