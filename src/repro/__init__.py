"""ImaGen reproduction: generating memory- and power-efficient image processing accelerators.

Public API
----------
* :class:`repro.api.CompileTarget` — the unified, immutable compile request
  (DAG + resolution + memory spec + options + generator) consumed by every
  layer.
* :func:`repro.dsl.parse_pipeline` / :class:`repro.dsl.PipelineBuilder` — describe pipelines.
* :func:`repro.core.compile_pipeline` — compile a target into an optimized accelerator.
* :func:`repro.baselines.generate_baseline` — Darkroom / SODA / FixyNN comparison designs.
* :mod:`repro.sim` — cycle-level legality checks and functional simulation.
* :mod:`repro.estimate` — ASIC area/power and FPGA BRAM models.
* :mod:`repro.rtl` — Verilog generation.
* :mod:`repro.algorithms` — the Table-3 algorithm suite.
* :mod:`repro.dse` — design-space exploration (Fig. 10), via ``target.with_options(...)``.
* :mod:`repro.service` — compile cache + batch/parallel engine, whose
  batches run on the workers of one job queue, with an HTTP/JSON serving front
  (``python -m repro.service.http``).  Its names re-exported here load on
  first use, so ``import repro`` does not pay for the service layer.
"""

from repro.api.fingerprint import compile_fingerprint, dag_fingerprint
from repro.api.target import CompileTarget
from repro.core.compiler import CompiledAccelerator, compile_pipeline, compile_target
from repro.core.scheduler import SchedulerOptions, schedule_pipeline
from repro.core.schedule import PipelineSchedule
from repro.dsl.builder import PipelineBuilder
from repro.dsl.parser import parse_pipeline
from repro.ir.dag import PipelineDAG, Stage, Edge
from repro.ir.stencil import StencilWindow
from repro.memory.spec import (
    MemorySpec,
    FpgaSpec,
    asic_dual_port,
    asic_single_port,
    asic_fifo,
    spartan7_fpga,
)

__version__ = "1.2.0"

#: :mod:`repro.service` names re-exported here, imported when first read.
_SERVICE_NAMES = frozenset(
    {
        "CompileCache",
        "CompileEngine",
        "CompileResult",
        "DiskCacheStore",
    }
)


def __getattr__(name: str):
    if name in _SERVICE_NAMES:
        from repro import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CompileTarget",
    "CompiledAccelerator",
    "compile_pipeline",
    "compile_target",
    "compile_fingerprint",
    "dag_fingerprint",
    "SchedulerOptions",
    "schedule_pipeline",
    "PipelineSchedule",
    "PipelineBuilder",
    "parse_pipeline",
    "PipelineDAG",
    "Stage",
    "Edge",
    "StencilWindow",
    "MemorySpec",
    "FpgaSpec",
    "asic_dual_port",
    "asic_single_port",
    "asic_fifo",
    "spartan7_fpga",
    "CompileCache",
    "CompileEngine",
    "CompileResult",
    "DiskCacheStore",
    "__version__",
]
