"""Temporal-pipeline benchmark: frame-buffer SRAM accounting and cache reuse.

The temporal suite extends the paper's spatial evaluation with a time axis:
compiling ``temporal-denoise-m`` must provision whole-frame history SRAM on
top of the usual line buffers, every generator must report it, and the compile
service must serve the (bigger) temporal design from cache exactly as cheaply
as a spatial one.
"""

from __future__ import annotations

import time

from repro.algorithms import TEMPORAL_ALGORITHM_NAMES, build_algorithm
from repro.api import CompileTarget
from repro.estimate.report import accelerator_report
from repro.service import CompileEngine

W, H = 480, 320

GENERATORS = ("imagen", "soda", "darkroom", "fixynn")


def test_temporal_denoise_reports_frame_sram(benchmark):
    """Every generator compiles the temporal suite and reports frame SRAM."""

    def compile_all():
        rows = {}
        for name in TEMPORAL_ALGORITHM_NAMES:
            for generator in GENERATORS:
                target = CompileTarget(
                    build_algorithm(name),
                    image_width=W,
                    image_height=H,
                    generator=generator,
                )
                engine = CompileEngine()
                schedule = engine.compile(target).schedule
                rows[(name, generator)] = accelerator_report(schedule).row()
        return rows

    rows = benchmark.pedantic(compile_all, rounds=1, iterations=1)
    for (name, generator), row in rows.items():
        line_kb = row["sram_kb"] - row["frame_sram_kb"]
        print(
            f"\n{name} [{generator}]: line SRAM {line_kb:.1f} KB, "
            f"frame SRAM {row['frame_sram_kb']:.1f} KB "
            f"({row['frame_buffers']} buffer(s))"
        )
        assert row["frame_buffers"] >= 1, (name, generator)
        assert row["frame_sram_kb"] > 0, (name, generator)
        # A retained frame at 480x320x8bit is 150 KB: frame history dominates
        # line storage at this resolution, which is the point of reporting it
        # as its own column (sram_kb is the grand total, frame_sram_kb the
        # frame-buffer share).
        assert row["frame_sram_kb"] > line_kb, (name, generator)


def test_warm_temporal_compile_is_5x_faster_than_cold(benchmark):
    def cold_and_warm():
        engine = CompileEngine()
        target = CompileTarget(
            build_algorithm("temporal-denoise-m"), image_width=W, image_height=H
        )
        start = time.perf_counter()
        engine.compile(target)
        cold = time.perf_counter() - start
        # Best of several warm calls so one scheduler preemption cannot decide
        # the ratio (same convention as the spatial cache benchmark).
        warm = min(_timed(lambda: engine.compile(target)) for _ in range(5))
        return cold, warm, engine.cache.stats.snapshot()

    cold, warm, stats = benchmark.pedantic(cold_and_warm, rounds=1, iterations=1)
    speedup = cold / warm if warm > 0 else float("inf")
    print(
        f"\nTemporal cache: cold {cold * 1000:.1f} ms, warm {warm * 1000:.3f} ms "
        f"({speedup:.0f}x, hits={stats.hits}, misses={stats.misses})"
    )
    assert stats.hits == 5 and stats.misses == 1
    assert warm * 5 <= cold, f"warm temporal compile only {speedup:.1f}x faster than cold"


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
