#!/usr/bin/env python3
"""Pluggable executor backends: one engine API, two execution strategies.

The same catalog batch is compiled two ways — ``inline`` (deterministic, on
the calling thread) and ``thread`` (the default pool) — and the results are
shown to be bit-identical: fingerprints and area/power report rows do not
depend on where a job ran.

The second half demonstrates the shared disk volume: a baseline (Darkroom)
design compiled by one engine is persisted — full line-buffer configuration
and all — to a :class:`DiskCacheStore` volume, and a second, cold engine on
the same volume answers the identical request from disk without running any
generator.  Separate server processes share a volume the same way.

Run:  python examples/executor_backends.py
"""

from __future__ import annotations

import tempfile
import time

from repro import CompileEngine, CompileTarget
from repro.algorithms import algorithm_names, build_algorithm
from repro.estimate.report import accelerator_report

W, H = 480, 320


def compile_catalog(executor: str) -> tuple[list, float]:
    targets = [
        CompileTarget(build_algorithm(name), image_width=W, image_height=H, label=name)
        for name in algorithm_names()
    ]
    with CompileEngine(workers=4, executor=executor) as engine:
        started = time.perf_counter()
        batch = engine.submit_batch(targets)
        seconds = time.perf_counter() - started
    batch.raise_on_error()
    rows = [
        (result.fingerprint, accelerator_report(result.accelerator).row())
        for result in batch.results
    ]
    return rows, seconds


def main() -> None:
    print(f"catalog: {', '.join(algorithm_names())} @ {W}x{H}\n")
    outcomes = {}
    for executor in ("inline", "thread"):
        rows, seconds = compile_catalog(executor)
        outcomes[executor] = rows
        print(f"  executor={executor:<8} {len(rows)} designs in {seconds:.2f}s")
    assert outcomes["inline"] == outcomes["thread"]
    print("\nboth backends produced identical fingerprints and reports\n")

    with tempfile.TemporaryDirectory(prefix="imagen-cache-") as volume:
        darkroom = CompileTarget(
            build_algorithm("unsharp-m"),
            image_width=W,
            image_height=H,
            generator="darkroom",
        )
        with CompileEngine(workers=2, cache_dir=volume) as writer:
            first = writer.submit(darkroom)
            print(
                f"engine A compiled darkroom design: source={first.source}, "
                f"{first.seconds * 1000:.1f} ms"
            )
        # A brand-new engine: empty memory tier, same shared volume.
        with CompileEngine(workers=2, cache_dir=volume) as reader:
            second = reader.submit(darkroom)
            print(
                f"engine B loaded it from the shared volume: source={second.source}, "
                f"{second.seconds * 1000:.1f} ms"
            )
            assert second.source == "disk"
            assert (
                accelerator_report(second.accelerator).row()
                == accelerator_report(first.accelerator).row()
            )
    print("\nbaseline round-tripped through DiskCacheStore with identical reports")


if __name__ == "__main__":
    main()
