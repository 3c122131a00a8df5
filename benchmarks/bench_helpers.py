"""Shared helpers for the benchmark harness (one module per paper table/figure).

Every benchmark regenerates the corresponding table or figure of the paper:
it evaluates all five design styles (FixyNN, Darkroom, SODA, Ours, Ours+LC)
on the Table-3 algorithm suite at the paper's two resolutions and prints the
rows/series.  Absolute values differ from the paper (our SRAM/power models are
analytic, not silicon-calibrated); the comparisons of interest are the ratios
between generators, which the benchmarks print next to their assertions.
"""

from __future__ import annotations

from typing import Callable

from repro.algorithms import ALGORITHM_NAMES, build_algorithm
from repro.api import CompileTarget
from repro.core.compiler import compile_target
from repro.core.schedule import PipelineSchedule
from repro.estimate.report import AcceleratorReport, accelerator_report
from repro.service import CompileEngine

#: Resolutions used in the paper's evaluation.
RES_320P = (480, 320)
RES_1080P = (1920, 1080)

GENERATORS = ("fixynn", "darkroom", "soda", "ours", "ours+lc")


def design_target(generator: str, algorithm: str, width: int, height: int) -> CompileTarget:
    """The :class:`CompileTarget` of one design point (generator x algorithm x resolution)."""
    target = CompileTarget(
        dag=build_algorithm(algorithm),
        image_width=width,
        image_height=height,
        label=f"{algorithm}@{width}x{height}:{generator}",
    )
    if generator == "ours":
        return target
    if generator == "ours+lc":
        return target.with_options(coalescing=True)
    return target.with_generator(generator)


def build_design(
    generator: str,
    algorithm: str,
    width: int,
    height: int,
    engine: CompileEngine | None = None,
) -> PipelineSchedule:
    """Build one design point (generator x algorithm x resolution)."""
    target = design_target(generator, algorithm, width, height)
    if engine is not None:
        return engine.submit(target).unwrap().schedule
    return compile_target(target).schedule


def evaluate_all(
    width: int, height: int, engine: CompileEngine | None = None
) -> dict[str, dict[str, AcceleratorReport]]:
    """Evaluate every generator on every algorithm at one resolution.

    All five generators share one :class:`CompileEngine`: the plain solve of
    the ``ours+lc`` auto-coalescing fallback is a cache hit on the schedule
    already compiled for ``ours`` (one ILP solve saved per algorithm), and
    baseline designs are content-addressed too, so any evaluation that
    repeats a (generator, algorithm, resolution) point reuses it outright.
    """
    engine = engine or CompileEngine()
    results: dict[str, dict[str, AcceleratorReport]] = {}
    for algorithm in ALGORITHM_NAMES:
        results[algorithm] = {}
        for generator in GENERATORS:
            schedule = build_design(generator, algorithm, width, height, engine=engine)
            results[algorithm][generator] = accelerator_report(schedule)
    return results


def print_metric_table(
    title: str,
    results: dict[str, dict[str, AcceleratorReport]],
    metric: Callable[[AcceleratorReport], float],
    unit: str,
) -> dict[str, dict[str, float]]:
    """Print one figure's bar groups as a table and return the raw values."""
    table: dict[str, dict[str, float]] = {}
    print(f"\n{title}")
    header = f"{'algorithm':<12}" + "".join(f"{g:>12}" for g in GENERATORS)
    print(header)
    print("-" * len(header))
    for algorithm, by_generator in results.items():
        table[algorithm] = {g: metric(r) for g, r in by_generator.items()}
        row = f"{algorithm:<12}" + "".join(f"{table[algorithm][g]:>12.1f}" for g in GENERATORS)
        print(row)
    averages = {
        g: sum(table[a][g] for a in table) / len(table) for g in GENERATORS
    }
    print(f"{'average':<12}" + "".join(f"{averages[g]:>12.1f}" for g in GENERATORS) + f"   [{unit}]")
    table["average"] = averages
    return table


def savings(table: dict[str, dict[str, float]], ours: str, baseline: str) -> float:
    """Average percentage reduction of `ours` relative to `baseline` (paper-style)."""
    avg = table["average"]
    return 100.0 * (1.0 - avg[ours] / avg[baseline])
