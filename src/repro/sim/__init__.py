"""Simulators: cycle-level line-buffer legality/accounting and functional execution."""

from repro.sim.batch import (
    BatchReplay,
    golden_frames,
    output_digest,
    replay_frames,
)
from repro.sim.cycle import (
    BufferStats,
    LegalityReport,
    LegalityViolation,
    SimulationReport,
    check_schedule_legality,
    simulate_schedule,
)
from repro.sim.functional import run_functional, FunctionalResult

__all__ = [
    "SimulationReport",
    "BufferStats",
    "LegalityReport",
    "LegalityViolation",
    "check_schedule_legality",
    "simulate_schedule",
    "run_functional",
    "FunctionalResult",
    "BatchReplay",
    "golden_frames",
    "output_digest",
    "replay_frames",
]
