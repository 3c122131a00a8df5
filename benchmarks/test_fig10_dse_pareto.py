"""Fig. 10: power-vs-area design-space exploration for Canny-m and Denoise-m.

Each line buffer may independently use a dual-port memory (DP) or dual-port
with line coalescing (DPLC); the sweep compiles every combination at 320p with
right-sized (custom) memory macros and extracts the Pareto frontier.  The
paper's observations: the Pareto-optimal set differs per algorithm, and for
Canny-m the all-DPLC design is far off the frontier.
"""

from __future__ import annotations

from repro.algorithms import build_algorithm
from repro.api import CompileTarget
from repro.dse.pareto import pareto_front
from repro.dse.sweep import sweep_memory_configurations

W, H = 480, 320


def run_dse():
    outcomes = {}
    for algorithm in ("canny-m", "denoise-m"):
        points = sweep_memory_configurations(
            CompileTarget(build_algorithm(algorithm), image_width=W, image_height=H),
        )
        front = pareto_front(points, lambda p: (p.area_mm2, p.power_mw))
        outcomes[algorithm] = (points, front)
    return outcomes


def test_fig10_design_space_exploration(benchmark):
    outcomes = benchmark.pedantic(run_dse, rounds=1, iterations=1)

    for algorithm, (points, front) in outcomes.items():
        print(f"\nFig 10 ({algorithm}): {len(points)} designs, {len(front)} Pareto-optimal")
        print(f"{'design':<32}{'#DPLC':>7}{'area mm2':>11}{'power mW':>11}{'pareto':>8}")
        for point in sorted(points, key=lambda p: p.area_mm2):
            marker = "yes" if point in front else ""
            print(
                f"{point.label[:31]:<32}{point.coalesced_stages:>7}"
                f"{point.area_mm2:>11.3f}{point.power_mw:>11.2f}{marker:>8}"
            )

        # The sweep explores 2^k designs and finds a non-trivial frontier.
        assert len(points) >= 4
        assert 1 <= len(front) < len(points)

        all_dp = next(p for p in points if p.coalesced_stages == 0)
        all_dplc = max(points, key=lambda p: p.coalesced_stages)
        # Coalescing raises per-access energy, so the fully-coalesced design
        # always burns more power than the all-DP design (the paper's P1 vs P4).
        assert all_dplc.power_mw > all_dp.power_mw

    # Canny-m specific observation from the paper: the all-DPLC design (P4) is
    # far from the Pareto frontier.
    canny_points, canny_front = outcomes["canny-m"]
    canny_all_dplc = max(canny_points, key=lambda p: p.coalesced_stages)
    assert canny_all_dplc not in canny_front

    # The Pareto-optimal configurations differ between algorithms (the paper's
    # key DSE observation); print the frontier composition.
    canny_front = sorted(p.label for p in outcomes["canny-m"][1])
    denoise_front = sorted(p.label for p in outcomes["denoise-m"][1])
    print(f"\n  Canny-m Pareto set:   {canny_front}")
    print(f"  Denoise-m Pareto set: {denoise_front}")
