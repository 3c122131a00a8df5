"""FixyNN-style baseline: classic line buffers over single-port SRAM.

FixyNN [Whatmough et al. 2019] builds the Sec. 2 line-buffer design but only
with single-port memory blocks, so no two stages may ever touch the same line
in the same cycle.  We realise this by running the ImaGen scheduling ILP on
the memory spec adapted to one port, without coalescing (coalescing is
impossible with one port); the resulting delays are one full stencil height
larger than the dual-port design, which is where FixyNN's extra memory comes
from.
"""

from __future__ import annotations

from dataclasses import replace

from repro.baselines.base import BaselineGenerator
from repro.core.schedule import PipelineSchedule
from repro.core.scheduler import schedule_pipeline
from repro.ir.dag import PipelineDAG
from repro.memory.spec import MemorySpec, asic_single_port


class FixynnGenerator(BaselineGenerator):
    """Generate a FixyNN-style (single-port) accelerator design."""

    name = "fixynn"

    def generate(
        self,
        dag: PipelineDAG,
        image_width: int,
        image_height: int,
        memory_spec: MemorySpec | None = None,
    ) -> PipelineSchedule:
        if memory_spec is None:
            memory_spec = asic_single_port()
        elif (
            memory_spec.ports != 1
            or memory_spec.allow_coalescing
            or memory_spec.style != "sram"
        ):
            # Adapt, but idempotently: a spec already in FixyNN form (e.g. the
            # asic_single_port preset) is used as-is, without renaming.
            memory_spec = replace(
                memory_spec,
                name=f"{memory_spec.name}-sp",
                ports=1,
                allow_coalescing=False,
                style="sram",
            )
        schedule = schedule_pipeline(dag, image_width, image_height, memory_spec)
        schedule.generator = "fixynn"
        return schedule
