"""Top-level compiler facade (paper Fig. 5).

:func:`compile_pipeline` ties the framework together: it takes one
:class:`repro.api.CompileTarget` — pipeline DAG, resolution, memory spec,
scheduler options and generator name — and returns a
:class:`CompiledAccelerator` with hooks to generate Verilog and area/power
reports.  The target's ``generator`` selects the design style: ``"imagen"``
runs the ILP optimizer (with the optional line-coalescing fallback), any
baseline name (``"darkroom"``, ``"soda"``, ``"fixynn"``) runs that comparison
generator through the same cache, so baseline designs are content-addressed
and reusable exactly like optimized ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Any

from typing import TYPE_CHECKING

from repro.core.schedule import PipelineSchedule
from repro.core.scheduler import SchedulerOptions, schedule_pipeline
from repro.ir.dag import PipelineDAG
from repro.trace import trace_span

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.api.target import CompileTarget

# `repro.api` imports `repro.core.scheduler`, which triggers this package's
# __init__ (and thus this module) first — so api imports here must happen
# lazily, after both packages finish initializing.


@dataclass
class CompiledAccelerator:
    """A compiled accelerator: schedule plus lazily-generated artifacts."""

    schedule: PipelineSchedule
    options: SchedulerOptions
    metadata: dict[str, Any] = field(default_factory=dict)
    target: CompileTarget | None = None

    @property
    def dag(self) -> PipelineDAG:
        return self.schedule.dag

    @property
    def compile_seconds(self) -> float:
        return float(self.schedule.solver_stats.get("compile_seconds", 0.0))

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the request that produced this design."""
        fingerprints = self.metadata.get("schedule_fingerprints", ())
        return fingerprints[0] if fingerprints else ""

    # ----------------------------------------------------------------- RTL
    def generate_verilog(self) -> str:
        """Emit synthesizable Verilog for the scheduled pipeline."""
        from repro.rtl.generator import generate_verilog

        return generate_verilog(self.schedule)

    # ------------------------------------------------------------- analysis
    def area_report(self):
        """Memory + PE area summary (ASIC model)."""
        from repro.estimate.area import area_report

        return area_report(self.schedule)

    def power_report(self):
        """Memory + PE power summary (ASIC model)."""
        from repro.estimate.power import power_report

        return power_report(self.schedule)

    def verify(self, *, max_rows: int | None = 16):
        """Run the cycle-level legality checks (R1-R3) on a reduced image."""
        from repro.sim.cycle import simulate_schedule

        return simulate_schedule(self.schedule, max_rows=max_rows)

    def describe(self) -> str:
        return self.schedule.describe()


def _schedule_cached(
    target: CompileTarget, cache: Any | None
) -> tuple[PipelineSchedule, str, str]:
    """Solve one ImaGen schedule target, consulting a compile cache when given.

    Returns the schedule, its source — ``"memory"``/``"disk"`` for cache
    tiers, ``"solver"`` for a fresh ILP solve (which is then recorded in the
    cache) — and its content fingerprint.  A miss solves exactly as an
    uncached compile does, so the schedule depends only on the target.
    """
    if cache is None:
        schedule, source, fingerprint = None, "solver", target.fingerprint
    else:
        schedule, source, fingerprint = cache.fetch(target)
    if schedule is None:
        schedule = schedule_pipeline(
            target.dag,
            target.image_width,
            target.image_height,
            target.memory_spec,
            target.options,
        )
        if cache is not None:
            cache.put(fingerprint, schedule)
    return schedule, source, fingerprint


def _compile_imagen(target: CompileTarget, cache: Any | None) -> CompiledAccelerator:
    """The ImaGen ILP path, including the auto-coalescing fallback."""
    options = target.options
    schedule, source, fingerprint = _schedule_cached(target, cache)
    sources = [source]
    fingerprints = [fingerprint]

    if options.coalescing and options.coalescing_policy == "auto":
        # Coalescing interacts with downstream buffer sizes through the extra
        # writer-separation constraints; like any compiler optimization it is
        # only kept when it actually reduces the allocated on-chip memory.
        plain_target = target.with_options(coalescing=False)
        with trace_span("coalescing_fallback"):
            plain, plain_source, plain_fingerprint = _schedule_cached(plain_target, cache)
        sources.append(plain_source)
        fingerprints.append(plain_fingerprint)
        if plain.total_allocated_bits < schedule.total_allocated_bits or (
            plain.total_allocated_bits == schedule.total_allocated_bits
            and plain.total_blocks < schedule.total_blocks
        ):
            # Relabel a copy: `plain` may live in the cache under the
            # non-coalesced fingerprint and must stay pristine there.
            schedule = dc_replace(
                plain,
                generator="imagen+lc",
                solver_stats={**plain.solver_stats, "coalescing_fallback": True},
            )

    return CompiledAccelerator(
        schedule=schedule,
        options=options,
        metadata={
            "schedule_sources": tuple(sources),
            "schedule_fingerprints": tuple(fingerprints),
        },
        target=target,
    )


def _compile_baseline(target: CompileTarget, cache: Any | None) -> CompiledAccelerator:
    """Run a baseline generator (Darkroom/SODA/FixyNN) through the cache."""
    from repro.baselines.base import baseline_generator

    generator = baseline_generator(target.generator)  # raises BaselineError early
    if cache is None:
        schedule = generator.generate(
            target.dag, target.image_width, target.image_height, target.memory_spec
        )
        source, fingerprint = "solver", target.fingerprint
    else:
        schedule, source, fingerprint = cache.fetch(target)
        if schedule is None:
            schedule = generator.generate(
                target.dag, target.image_width, target.image_height, target.memory_spec
            )
            cache.put(fingerprint, schedule)
    return CompiledAccelerator(
        schedule=schedule,
        options=target.options,
        metadata={
            "schedule_sources": (source,),
            "schedule_fingerprints": (fingerprint,),
        },
        target=target,
    )


def compile_target(target: CompileTarget, *, cache: Any | None = None) -> CompiledAccelerator:
    """Compile one :class:`CompileTarget` into an accelerator design.

    Dispatches on ``target.generator``: ``"imagen"`` solves the scheduling
    ILP, a baseline name runs that generator.  Both paths consult the same
    ``cache`` (a :class:`repro.service.cache.CompileCache`) by content
    fingerprint, and both record, in the returned accelerator's metadata, the
    ``schedule_sources`` consulted and the matching ``schedule_fingerprints``
    so callers can correlate results with cache entries.
    """
    from repro.api.target import require_target

    target = require_target(target)
    if target.is_imagen:
        return _compile_imagen(target, cache)
    return _compile_baseline(target, cache)


#: The library's public name for :func:`compile_target`::
#:
#:     target = CompileTarget(dag, image_width=480, image_height=320)
#:     acc = compile_pipeline(target)
#:     lc = compile_pipeline(target.with_options(coalescing=True))
compile_pipeline = compile_target
