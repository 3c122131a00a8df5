"""Baseline accelerator generators the paper compares against (Sec. 7).

* :mod:`repro.baselines.darkroom` — linearizes multi-consumer pipelines and
  uses dual-port SRAM line buffers.
* :mod:`repro.baselines.soda` — FIFO-based line buffers (dual-port SRAM),
  FIFO splitting for multi-consumer stages, last line in DFFs.
* :mod:`repro.baselines.fixynn` — classic line buffers restricted to
  single-port SRAM.

Each generator returns the same :class:`repro.core.schedule.PipelineSchedule`
artifact as the ImaGen optimizer, so simulators and estimators treat all
designs uniformly.
"""

from repro.baselines.base import (
    BASELINE_NAMES,
    BaselineGenerator,
    baseline_generator,
)
from repro.baselines.darkroom import DarkroomGenerator, linearize_dag
from repro.baselines.soda import SodaGenerator
from repro.baselines.fixynn import FixynnGenerator

__all__ = [
    "BaselineGenerator",
    "baseline_generator",
    "BASELINE_NAMES",
    "DarkroomGenerator",
    "linearize_dag",
    "SodaGenerator",
    "FixynnGenerator",
]
