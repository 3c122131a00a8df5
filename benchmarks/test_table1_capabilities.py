"""Table 1: which generator supports which memory assumption / algorithm form.

The paper's Table 1 is qualitative: Darkroom and SODA require dual-port
memories, FixyNN single-port, and only ImaGen handles a generic specification;
Darkroom/FixyNN natively target single-consumer pipelines.  This benchmark
checks those capabilities operationally: it tries to generate a design for a
single-consumer and a multi-consumer pipeline under single- and dual-port
memory specifications and reports the support matrix.
"""

from __future__ import annotations

import pytest

from repro.algorithms import build_algorithm
from repro.api import CompileTarget
from repro.core.compiler import compile_pipeline
from repro.errors import ReproError
from repro.memory.spec import asic_dual_port, asic_single_port

W, H = 480, 320


def _can_generate(generator: str, algorithm: str, spec) -> bool:
    target = CompileTarget(
        dag=build_algorithm(algorithm),
        image_width=W,
        image_height=H,
        memory_spec=spec,
    )
    if generator != "ours":
        target = target.with_generator(generator)
    try:
        compile_pipeline(target)
        return True
    except ReproError:
        return False


def capability_matrix() -> dict[tuple[str, str, str], bool]:
    matrix = {}
    specs = {"single-port": asic_single_port(), "dual-port": asic_dual_port()}
    for generator in ("fixynn", "darkroom", "soda", "ours"):
        for algorithm in ("canny-s", "unsharp-m"):
            for spec_name, spec in specs.items():
                matrix[(generator, algorithm, spec_name)] = _can_generate(
                    generator, algorithm, spec
                )
    return matrix


def test_table1_capability_matrix(benchmark):
    matrix = benchmark(capability_matrix)

    print("\nTable 1 (operational form): design generated successfully?")
    for (generator, algorithm, spec_name), ok in sorted(matrix.items()):
        print(f"  {generator:<9} {algorithm:<10} {spec_name:<12} {'yes' if ok else 'no'}")

    # ImaGen handles every combination.
    assert all(ok for (gen, _, _), ok in matrix.items() if gen == "ours")
    # SODA and Darkroom cannot target single-port memories (paper Sec. 3.2).
    assert not matrix[("soda", "canny-s", "single-port")]
    assert not matrix[("darkroom", "canny-s", "single-port")]
    # FixyNN ignores extra ports but always produces single-port designs.
    assert matrix[("fixynn", "canny-s", "single-port")]
    assert matrix[("fixynn", "unsharp-m", "dual-port")]
    # Dual-port memories are handled by every generator.
    assert all(ok for (gen, alg, spec), ok in matrix.items() if spec == "dual-port")
