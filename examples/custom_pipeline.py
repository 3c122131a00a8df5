#!/usr/bin/env python3
"""Author a custom pipeline with the Python builder API and explore memory specs.

This example builds a small high-dynamic-range-style fusion pipeline (weighted
blend of a detail image and a smoothed image) with the programmatic
:class:`PipelineBuilder`, registers it in the algorithm catalog alongside the
Table-3 suite, then compiles it against three different on-chip memory
specifications — generic dual-port SRAM, single-port SRAM, and FIFOs —
showing how the same algorithm maps to different hardware and what each costs.

Run:  python examples/custom_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro import CompileTarget, PipelineBuilder, compile_pipeline
from repro.algorithms import algorithm_info, build_algorithm, register_algorithm
from repro.dsl import ast
from repro.dsl.builder import convolve, window_sum
from repro.estimate.report import accelerator_report
from repro.memory.spec import asic_dual_port, asic_single_port
from repro.sim.functional import run_functional

WIDTH, HEIGHT = 480, 320


def build_fusion_pipeline():
    builder = PipelineBuilder("exposure-fusion")
    source = builder.input("K0")
    smooth = builder.stage(
        "smooth", convolve(source, [[1, 2, 1], [2, 4, 2], [1, 2, 1]], normalize=True)
    )
    detail = builder.stage("detail", ast.Call("abs", (source(0, 0) - smooth(0, 0),)))
    weight = builder.stage("weight", window_sum(detail, 5, 5) / 25.0)
    builder.output(
        "fused",
        ast.Call(
            "clamp",
            (
                smooth(0, 0) + (source(0, 0) - smooth(0, 0)) * (weight(0, 0) / 32.0 + 0.5),
                ast.Const(0.0),
                ast.Const(255.0),
            ),
        ),
    )
    return builder.build()


def main() -> None:
    # Install the custom pipeline into the catalog: any code that accepts a
    # Table-3 algorithm name (benchmarks, sweeps, services) can now build it.
    register_algorithm(
        "exposure-fusion",
        "HDR-style weighted fusion of a smoothed and a detail image (custom)",
        build_fusion_pipeline,
    )
    info = algorithm_info("exposure-fusion")
    print(
        f"registered {info.name!r}: {info.expected_stages} stages, "
        f"{info.expected_multi_consumer_stages} multi-consumer\n"
    )

    dag = build_algorithm("exposure-fusion")
    print(dag.summary())
    print(f"multi-consumer stages: {dag.multi_consumer_stages()}\n")

    rng = np.random.default_rng(1)
    image = rng.integers(0, 256, size=(HEIGHT, WIDTH)).astype(np.float64)
    output = run_functional(dag, image).output()
    print(f"functional check: output range [{output.min():.1f}, {output.max():.1f}]\n")

    # One base target, four derivations: every design style — including the
    # SODA baseline — is just a differently-derived CompileTarget.
    base = CompileTarget(dag, image_width=WIDTH, image_height=HEIGHT)
    print(f"{'memory spec':<22}{'generator':>10}{'blocks':>8}{'KB':>8}{'mW':>8}")
    candidates = [
        ("dual-port SRAM", compile_pipeline(base).schedule),
        ("dual-port SRAM + LC", compile_pipeline(base.with_options(coalescing=True)).schedule),
        (
            "single-port SRAM",
            compile_pipeline(base.with_memory_spec(asic_single_port())).schedule,
        ),
        ("FIFOs (SODA style)", compile_pipeline(base.with_generator("soda")).schedule),
    ]
    for label, schedule in candidates:
        report = accelerator_report(schedule)
        print(
            f"{label:<22}{schedule.generator:>10}{report.sram_blocks:>8}"
            f"{report.sram_kbytes:>8.0f}{report.memory_power_mw:>8.1f}"
        )

    print(
        "\nThe dual-port + line-coalescing design is what the ImaGen compiler "
        "would hand to the RTL generator; call .generate_verilog() on the "
        "compiled accelerator to emit it."
    )


if __name__ == "__main__":
    main()
