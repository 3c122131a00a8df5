"""Per-stage memory-configuration sweep (reproduces Fig. 10).

Each line buffer in an algorithm may independently be implemented as a plain
dual-port memory (DP) or as a dual-port memory with line coalescing (DPLC).
The sweep enumerates every combination, compiles the pipeline for each, and
reports area and power so a designer (or the benchmark harness) can extract
the Pareto frontier.

Only buffers where coalescing can actually change the design (at least two
line slots and a block large enough for two lines) are swept; the rest are
fixed to DP, which keeps the sweep size at ``2^k`` for the ``k`` buffers that
matter — the paper's example of four configurable stages giving 16 designs.

The sweep is expressed in the unified request API: from one base
:class:`repro.api.CompileTarget` it derives each configuration as a
``base.with_options(...)`` target, so every design point carries the base
target's memory spec and scheduler knobs.  The baseline compile that
discovers the configurable buffers doubles as the all-DP design point, so it
is never solved twice.  Passing an ``engine`` routes every configuration
through a :class:`repro.service.engine.CompileEngine`: designs compile
concurrently on the engine's thread pool, failures are captured per
point instead of aborting the sweep, and the all-DP configuration is served
from the cache entry the baseline compile warmed.

A serial sweep (no engine) compiles each other variant with
:func:`repro.core.compiler.compile_target`, like any other target.  Either
way every variant is solved from its own target, so both paths return the
same designs.  Area and power are the ASIC flow's with per-design memory
macros (``sizing="custom"``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.api.target import CompileTarget, require_target
from repro.core.compiler import CompiledAccelerator, compile_target
from repro.errors import ReproError
from repro.estimate.report import AcceleratorReport, accelerator_report


@dataclass
class DesignPoint:
    """One explored memory configuration and its evaluated metrics."""

    configuration: dict[str, str]  # buffer name -> "DP" | "DPLC"
    accelerator: CompiledAccelerator
    report: AcceleratorReport
    label: str = ""
    metadata: dict[str, float] = field(default_factory=dict)

    @property
    def area_mm2(self) -> float:
        return self.report.memory_area_mm2

    @property
    def power_mw(self) -> float:
        return self.report.memory_power_mw

    @property
    def coalesced_stages(self) -> int:
        return sum(1 for value in self.configuration.values() if value == "DPLC")


def _configurable_buffers(
    base: CompileTarget, engine=None
) -> tuple[CompiledAccelerator, list[str]]:
    """Compile the baseline design and list buffers whose DP/DPLC choice matters.

    Returns the baseline :class:`CompiledAccelerator` alongside the buffer
    names so the caller can reuse it as the all-DP design point instead of
    compiling the identical configuration a second time.
    """
    # Coalescing off regardless of the base options: the baseline must BE the
    # all-DP design (and expose the uncoalesced line buffers the DP/DPLC
    # choice applies to).  Its fingerprint then equals the derived all-DP
    # configuration's, which is what lets the engine path reuse it.
    baseline_target = base.with_options(coalescing=False).with_label(
        f"{base.dag.name}:baseline"
    )
    if engine is not None:
        baseline = engine.submit(baseline_target).unwrap()
    else:
        baseline = compile_target(baseline_target)
    if base.memory_spec.coalescing_factor(base.image_width) <= 1:
        return baseline, []
    configurable = [
        producer
        for producer, config in baseline.schedule.line_buffers.items()
        if config.lines >= 2
    ]
    return baseline, configurable


def _design_target(base: CompileTarget, configuration: dict[str, str]) -> CompileTarget:
    """Derive the target for one DP/DPLC configuration from the base target."""
    coalesce_any = any(choice == "DPLC" for choice in configuration.values())
    per_stage = {name: (choice == "DPLC") for name, choice in configuration.items()}
    return base.with_options(
        coalescing=coalesce_any,
        coalescing_policy="all",
        per_stage_coalescing=per_stage,
    ).with_label(f"{base.dag.name}:{_design_label(configuration)}")


def _design_label(configuration: dict[str, str]) -> str:
    return "+".join(
        name for name, choice in configuration.items() if choice == "DPLC"
    ) or "all-DP"


def sweep_memory_configurations(
    base: CompileTarget,
    *,
    max_designs: int = 1024,
    engine=None,
) -> list[DesignPoint]:
    """Compile every DP/DPLC combination and return the evaluated design points.

    The DSE models an ASIC flow in which memory macros are compiled per design
    (``sizing="custom"``): a DPLC buffer uses fewer but larger macros, which
    lowers area but raises per-access energy — the trade-off of Fig. 10.

    Parameters
    ----------
    base:
        The base design point, a :class:`repro.api.CompileTarget`; its memory
        spec and scheduler options seed every derived configuration.
    engine:
        Optional :class:`repro.service.engine.CompileEngine`.  All ``2^k``
        configurations are submitted as one batch: compiles fan out over the
        engine's thread pool, repeated design points are served from its
        cache, and a design point that fails to compile is skipped (the
        sweep only raises when *every* point fails).  Results come back in
        the serial path's order, with the same designs.  Build it with
        ``CompileEngine(workers=N)`` to pick the fan-out width.
    """
    if not require_target(base).is_imagen:
        raise ReproError(
            f"The DP/DPLC sweep only applies to the ImaGen optimizer; got "
            f"generator={base.generator!r}"
        )

    baseline, configurable = _configurable_buffers(base, engine)
    num_designs = 2 ** len(configurable)
    if num_designs > max_designs:
        raise ReproError(
            f"Sweep would produce {num_designs} designs for {len(configurable)} configurable "
            f"buffers (limit {max_designs})"
        )

    configurations = [
        dict(zip(configurable, choices))
        for choices in itertools.product(("DP", "DPLC"), repeat=len(configurable))
    ]
    if engine is not None:
        compiled = _compile_with_engine(base, configurations, engine)
    else:
        compiled = _compile_serially(base, configurations, baseline)

    points: list[DesignPoint] = []
    for configuration, accelerator, metadata in compiled:
        report = accelerator_report(accelerator.schedule, sizing="custom")
        points.append(
            DesignPoint(
                configuration=configuration,
                accelerator=accelerator,
                report=report,
                label=_design_label(configuration),
                metadata=metadata,
            )
        )
    return points


def _compile_serially(
    base: CompileTarget,
    configurations: list[dict[str, str]],
    baseline: CompiledAccelerator,
):
    compiled = []
    for configuration in configurations:
        if all(choice == "DP" for choice in configuration.values()):
            accelerator = baseline  # the baseline compile *is* the all-DP design
        else:
            accelerator = compile_target(_design_target(base, configuration))
        compiled.append((configuration, accelerator, {}))
    return compiled


def _compile_with_engine(
    base: CompileTarget,
    configurations: list[dict[str, str]],
    engine,
):
    targets = [_design_target(base, configuration) for configuration in configurations]
    batch = engine.submit_batch(targets)
    compiled = []
    for configuration, result in zip(configurations, batch.results):
        if not result.ok:
            continue
        compiled.append(
            (configuration, result.accelerator, {"compile_seconds": result.seconds})
        )
    if configurations and not compiled:
        batch.raise_on_error()
    return compiled
