#!/usr/bin/env python3
"""Warm starts: the solve-acceleration layer end to end.

Two acts, using the paper's canny-m pipeline:

1. **Warm start** — schedule 1080p cold, then re-schedule with a hint from a
   480p solve of the same pipeline: the neighbor's solution transfers across
   resolutions and is certified optimal by the longest-walk bound, skipping
   the ILP entirely.
2. **Engine wiring** — the same thing happens automatically through a
   :class:`CompileEngine`: compiling 480p warms the cache, the 1080p compile
   misses exactly but warm-starts from the cached neighbor, and the
   ``neighbor_*`` / ``ilp_warm_*`` counters surface it.

Run:  python examples/warm_starts.py
"""

from __future__ import annotations

from repro.algorithms import build_algorithm
from repro.api import CompileTarget
from repro.core.scheduler import SchedulerOptions, schedule_pipeline
from repro.core.warmstart import hint_from_schedule
from repro.memory.spec import asic_dual_port
from repro.service import CompileEngine

W_SMALL, H_SMALL = 480, 320
W_LARGE, H_LARGE = 1920, 1080


def main() -> None:
    dag = build_algorithm("canny-m")
    spec = asic_dual_port()

    # -- Act 1: warm-start a 1080p solve from a 480p neighbor ---------------
    options = SchedulerOptions()
    small = schedule_pipeline(dag, W_SMALL, H_SMALL, spec, options)
    cold = schedule_pipeline(dag, W_LARGE, H_LARGE, spec, options)
    warm = schedule_pipeline(
        dag, W_LARGE, H_LARGE, spec, options, warm_hint=hint_from_schedule(small)
    )
    print(
        f"warm start: {warm.solver_stats['warm_start']} "
        f"(cold solved {cold.solver_stats['ilp_variables']} ILP vars, "
        f"warm solved {warm.solver_stats['ilp_variables']})"
    )
    assert warm.solver_stats["warm_start"] == "certificate"
    assert warm.start_cycles == cold.start_cycles, "warm must not change the answer"

    # -- Act 2: the engine does this by itself through its cache -------------
    engine = CompileEngine()
    engine.compile(CompileTarget(dag, image_width=W_SMALL, image_height=H_SMALL))
    compiled = engine.compile(
        CompileTarget(dag, image_width=W_LARGE, image_height=H_LARGE)
    )
    stats = engine.cache.stats.snapshot()
    print(
        f"engine: 1080p compile warm-started as "
        f"{compiled.schedule.solver_stats.get('warm_start', 'none')!r} "
        f"(neighbor_hits={stats.neighbor_hits}, neighbor_misses={stats.neighbor_misses})"
    )
    assert compiled.schedule.solver_stats.get("warm_start") == "certificate"
    assert stats.neighbor_hits >= 1
    assert compiled.schedule.start_cycles == cold.start_cycles
    print("OK: warm-started and engine-cached solves agree with the cold solve")


if __name__ == "__main__":
    main()
