"""Common infrastructure for baseline generators.

Baseline schedules are first-class citizens of the serving stack: routed
through :func:`repro.core.compile_pipeline`, they are content-addressed by
generator-aware fingerprints, cached in *both* tiers of
:class:`repro.service.cache.CompileCache` (their full line-buffer
configurations serialize via
:meth:`repro.memory.linebuffer.LineBufferConfig.to_payload`, so Darkroom /
SODA / FixyNN designs persist through ``DiskCacheStore`` and across process
boundaries exactly like optimized ones), and compiled on the engine's thread
pool like any other target.
"""

from __future__ import annotations

import abc

from repro.core.schedule import PipelineSchedule
from repro.errors import BaselineError
from repro.ir.dag import PipelineDAG
from repro.ir.traversal import topological_order
from repro.memory.spec import MemorySpec

BASELINE_NAMES = ("fixynn", "darkroom", "soda")


class BaselineGenerator(abc.ABC):
    """Interface shared by all baseline accelerator generators."""

    name: str = "baseline"

    @abc.abstractmethod
    def generate(
        self,
        dag: PipelineDAG,
        image_width: int,
        image_height: int,
        memory_spec: MemorySpec | None = None,
    ) -> PipelineSchedule:
        """Produce a schedule + line-buffer configuration for the pipeline."""

    # Convenience used by several baselines: data-dependency-only ASAP schedule.
    @staticmethod
    def asap_schedule(
        dag: PipelineDAG, image_width: int, extra_gap: dict[tuple[str, str], int] | None = None
    ) -> dict[str, int]:
        """Earliest start cycles honouring Eq. 1b (plus optional per-edge extra gaps)."""
        extra_gap = extra_gap or {}
        starts: dict[str, int] = {}
        for node in topological_order(dag):
            stage = dag.stage(node)
            if stage.is_input:
                starts[node] = 0
                continue
            best = 0
            for edge in dag.in_edges(node):
                min_delay = (edge.window.height - 1) * image_width + 1
                min_delay += extra_gap.get((edge.producer, edge.consumer), 0)
                best = max(best, starts[edge.producer] + min_delay)
            starts[node] = best
        return starts


def baseline_generator(name: str) -> BaselineGenerator:
    """Instantiate the generator for a baseline name (``fixynn``/``darkroom``/``soda``)."""
    from repro.baselines.darkroom import DarkroomGenerator
    from repro.baselines.fixynn import FixynnGenerator
    from repro.baselines.soda import SodaGenerator

    generators = {
        "fixynn": FixynnGenerator,
        "darkroom": DarkroomGenerator,
        "soda": SodaGenerator,
    }
    if name not in generators:
        raise BaselineError(f"Unknown baseline {name!r}; expected one of {BASELINE_NAMES}")
    return generators[name]()


def generate_baseline(target: "CompileTarget", *, cache=None):
    """Compile a baseline design point (Darkroom / SODA / FixyNN).

    Takes a :class:`repro.api.CompileTarget` whose ``generator`` names a
    baseline, routes it through :func:`repro.core.compile_pipeline` — and
    therefore through the same content-addressed ``cache`` as every other
    design — and returns a :class:`repro.core.compiler.CompiledAccelerator`::

        target = CompileTarget(dag, image_width=480, image_height=320,
                               generator="darkroom")
        acc = generate_baseline(target)           # CompiledAccelerator
        schedule = acc.schedule
    """
    from repro.api.target import require_target
    from repro.core.compiler import compile_pipeline

    if require_target(target).generator not in BASELINE_NAMES:
        raise BaselineError(
            f"generate_baseline needs a baseline target; got generator="
            f"{target.generator!r} (expected one of {BASELINE_NAMES})"
        )
    return compile_pipeline(target, cache=cache)
