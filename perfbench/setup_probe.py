"""Fresh-process set-up probe: ``import repro``, then one first operation.

Run as ``python3 perfbench/setup_probe.py <workload> <cache-dir>`` with
``PYTHONPATH`` pointing at the checkout's ``src``.  Prints one JSON line with
``time.monotonic()`` stamps taken when the import finished and when the first
operation completed; the parent measures both from just before it launched
this process.  The first operation is fixed per workload (not drawn from the
seed) so set-up time compares across runs.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> None:
    workload, cache_dir = sys.argv[1], sys.argv[2]
    import repro  # noqa: F401 - the import itself is what is timed

    imported = time.monotonic()
    from repro.algorithms import build_algorithm
    from repro.api import CompileTarget

    if workload == "compile-cold":
        from repro.core.compiler import compile_target
        from repro.estimate.report import accelerator_report
        from repro.rtl.generator import generate_verilog
        from repro.rtl.lint import lint_verilog

        target = CompileTarget(build_algorithm("harris-m"), image_width=480, image_height=320)
        accelerator = compile_target(target)
        accelerator_report(accelerator.schedule)
        ok = lint_verilog(generate_verilog(accelerator.schedule)).ok
    elif workload == "dse-sweep":
        from repro.dse.sweep import sweep_memory_configurations

        target = CompileTarget(build_algorithm("denoise-m"), image_width=480, image_height=320)
        ok = bool(sweep_memory_configurations(target))
    elif workload == "verify-catalog":
        from repro.service import CompileEngine
        from repro.service.verify import VerifyEngine, VerifyRequest

        engine = CompileEngine(cache_dir=cache_dir)
        try:
            target = CompileTarget(build_algorithm("unsharp-m"), image_width=480, image_height=320)
            result = VerifyEngine(engine).submit(
                VerifyRequest(target=target, check="golden", frames=2, seed=1)
            )
            ok = result.passed is True
        finally:
            engine.shutdown()
    else:
        raise SystemExit(f"no set-up probe for workload {workload!r}")
    done = time.monotonic()
    if not ok:
        raise SystemExit("set-up probe operation produced a wrong result")
    print(json.dumps({"imported": imported, "first_op_done": done}))


if __name__ == "__main__":
    main()
