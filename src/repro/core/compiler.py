"""Top-level compiler facade (paper Fig. 5).

:func:`compile_pipeline` (the public name of :func:`compile_target`) is the
only place a :class:`repro.api.CompileTarget` — pipeline DAG, resolution,
memory spec, scheduler options and generator name — becomes a schedule, and
the only place a :class:`CompiledAccelerator` is built.  The target's
``generator`` selects the producer: ``"imagen"`` solves the scheduling ILP,
and a baseline name (``"darkroom"``, ``"soda"``, ``"fixynn"``) runs that
comparison generator.  An ImaGen target with ``coalescing=True`` under the
``"auto"`` policy solves the coalesced system and keeps it only when it
allocates no more on-chip memory than the plain one.

One rule ties compiles to a compile cache
(:class:`repro.service.cache.CompileCache`): the entry under a target's
fingerprint is the schedule :func:`compile_target` returns for it.  Every
compile is therefore one fetch-or-produce: a warm compile, +LC included, is
a single lookup, and the plain twin an +LC miss compares against is fetched
or solved through the same helper under its own fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import replace as dc_replace
from typing import TYPE_CHECKING, Any, Callable

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
    target: CompileTarget
    #: Where the schedule came from: ``"memory"``/``"disk"`` (a cache tier)
    #: or ``"solver"`` (a fresh generator run).
    source: str = "solver"

    @property
    def options(self) -> SchedulerOptions:
        return self.target.options

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the target, the key of its cache entry."""
        return self.target.fingerprint

    @property
    def dag(self) -> PipelineDAG:
        return self.schedule.dag

    @property
    def compile_seconds(self) -> float:
        return float(self.schedule.solver_stats.get("compile_seconds", 0.0))

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


def _fetch_or_produce(
    target: CompileTarget, cache: Any | None, produce: Callable[..., PipelineSchedule]
) -> tuple[PipelineSchedule, str]:
    """The schedule cached under ``target``'s fingerprint, else ``produce``'s.

    Returns the schedule and its source: ``"memory"``/``"disk"`` for a cache
    tier, ``"solver"`` for a fresh run, whose schedule is then cached under
    the target's fingerprint.  A miss produces exactly what an uncached
    compile does, so the schedule depends only on the target.
    """
    if cache is not None:
        schedule, source, _ = cache.fetch(target)
        if schedule is not None:
            return schedule, source
    schedule = produce(target, cache)
    if cache is not None:
        cache.put(target.fingerprint, schedule)
    return schedule, "solver"


def _solve(target: CompileTarget, cache: Any | None) -> PipelineSchedule:
    """The ImaGen ILP solve of one target."""
    return schedule_pipeline(
        target.dag,
        target.image_width,
        target.image_height,
        target.memory_spec,
        target.options,
    )


def _solve_keeping_smaller(target: CompileTarget, cache: Any | None) -> PipelineSchedule:
    """The auto-coalescing policy: the coalesced solve, or the plain twin's
    schedule when that allocates less (fewer bits, then fewer blocks)."""
    # Coalescing interacts with downstream buffer sizes through the extra
    # writer-separation constraints; like any compiler optimization it is
    # only kept when it actually reduces the allocated on-chip memory.
    coalesced = _solve(target, cache)
    with trace_span("coalescing_fallback"):
        plain, _ = _fetch_or_produce(target.with_options(coalescing=False), cache, _solve)
    if (plain.total_allocated_bits, plain.total_blocks) < (
        coalesced.total_allocated_bits,
        coalesced.total_blocks,
    ):
        # Relabel a copy: `plain` is cached under its own fingerprint and
        # must stay pristine there.
        return dc_replace(
            plain,
            generator="imagen+lc",
            solver_stats={**plain.solver_stats, "coalescing_fallback": True},
        )
    return coalesced


def compile_target(target: CompileTarget, *, cache: Any | None = None) -> CompiledAccelerator:
    """Compile one :class:`CompileTarget` into an accelerator design.

    Dispatches on ``target.generator``: ``"imagen"`` solves the scheduling
    ILP, a baseline name runs that generator.  With a ``cache`` (a
    :class:`repro.service.cache.CompileCache`) the schedule is fetched by the
    target's fingerprint, or produced and stored there; the accelerator
    records which (:attr:`CompiledAccelerator.source`).
    """
    from repro.api.target import require_target

    target = require_target(target)
    options = target.options
    if not target.is_imagen:
        from repro.baselines.base import baseline_generator

        generator = baseline_generator(target.generator)  # raises BaselineError early

        def produce(target: CompileTarget, cache: Any | None) -> PipelineSchedule:
            return generator.generate(
                target.dag, target.image_width, target.image_height, target.memory_spec
            )

    elif options.coalescing and options.coalescing_policy == "auto":
        produce = _solve_keeping_smaller
    else:
        produce = _solve
    schedule, source = _fetch_or_produce(target, cache, produce)
    return CompiledAccelerator(schedule=schedule, target=target, source=source)


#: The library's public name for :func:`compile_target`::
#:
#:     target = CompileTarget(dag, image_width=480, image_height=320)
#:     acc = compile_pipeline(target)
#:     lc = compile_pipeline(target.with_options(coalescing=True))
compile_pipeline = compile_target
