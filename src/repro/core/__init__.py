"""Core optimizer: ILP-based line-buffered pipeline generation (paper Sec. 5-6)."""

from repro.core.schedule import PipelineSchedule
from repro.core.scheduler import SchedulerOptions, schedule_pipeline
from repro.core.coalescing import coalescing_factors
from repro.core.compiler import CompiledAccelerator, compile_pipeline

__all__ = [
    "PipelineSchedule",
    "SchedulerOptions",
    "schedule_pipeline",
    "coalescing_factors",
    "CompiledAccelerator",
    "compile_pipeline",
]
