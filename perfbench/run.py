"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end metric;
``--trace 1`` is the separate traced run that prints every per-layer metric
(and the tracing overhead).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are the human-readable report.  Full results, machine
metadata and (traced) spans are written to ``.perfbench-out/``.

Maintenance modes: ``--write-expected`` regenerates the known answers in
``perfbench/expected.json`` from the current program; ``--write-manifest``
regenerates ``BENCHMARK.json`` from the declarations in ``harness.py``.
See ``perfbench/README.md`` for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

import harness


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=harness.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced design sets and one set-up probe"
    )
    parser.add_argument("--write-expected", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if not (args.workload or args.write_expected or args.write_manifest):
        parser.error("--workload is required")
    return args


def import_program(traced: bool) -> None:
    """Put the checkout's ``src`` first on the path, with the program's defaults."""
    src = harness.ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}; run from a full checkout")
    for name in harness.OVERRIDE_ENV_VARS:
        os.environ.pop(name, None)
    os.environ["REPRO_TRACE"] = "1" if traced else "0"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def unit_of(name: str) -> str:
    for metric, unit, *_ in (*harness.END_TO_END, *harness.per_layer_metrics()):
        if metric == name:
            return unit
    raise KeyError(name)


def report(run, meta: dict, values: dict) -> None:
    print(f"perfbench {run.workload} seed={run.seed} trace={int(run.traced)}")
    for key, value in meta.items():
        print(f"  {key}: {value}")
    fail_ratio = run.failed / max(1, run.attempted)
    print(f"  fail_ratio: {fail_ratio:.4f} ({run.failed}/{run.attempted} ops)")
    for message in run.failure_messages:
        print(f"  FAILED {message}")
    if run.factors:
        print(
            f"  speed factor (reference / measured calibration): median "
            f"{harness.median(run.factors):.3f}, range {min(run.factors):.3f}-"
            f"{max(run.factors):.3f} over {len(run.factors)} units of work"
        )
    for note in run.notes:
        print(f"  note: {note}")
    if run.traced:
        print(f"  {'span (self time)':<34}{'count':>7}{'p50 ms':>10}{'p95 ms':>10}{'total ms':>11}")
        for name, count, p50, p95, total in harness.self_time_table(run):
            print(f"  {name:<34}{count:>7}{p50:>10.3f}{p95:>10.3f}{total:>11.1f}")
    for name, value in values.items():
        print(f"  {name:<34} {value:>14.6f} {unit_of(name)}")


def write_results(run, meta: dict, values: dict) -> Path:
    harness.OUT_DIR.mkdir(exist_ok=True)
    path = harness.OUT_DIR / f"{run.workload}-seed{run.seed}-trace{int(run.traced)}.json"
    document = {
        "metadata": meta,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()},
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failure_messages,
        "notes": run.notes,
    }
    if run.traced:
        document["self_times_ms"] = [
            {"span": name, "count": count, "p50": p50, "p95": p95, "total": total}
            for name, count, p50, p95, total in harness.self_time_table(run)
        ]
        document["spans"] = [
            {"source": source, "speed_factor": factor, "spans": [span.to_payload() for span in forest]}
            for source, forest, factor in run.span_records
        ]
    path.write_text(json.dumps(document, indent=1))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_manifest:
        manifest = harness.ROOT / "BENCHMARK.json"
        manifest.write_text(json.dumps(harness.manifest(), indent=2) + "\n")
        print(f"wrote {manifest}")
        return 0
    traced = bool(args.trace)
    import_program(traced)
    import workloads

    if args.write_expected:
        workloads.write_expected()
        print(f"wrote {workloads.EXPECTED_PATH}")
        return 0

    run = harness.Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=traced,
        smoke=args.smoke,
    )
    try:
        meta = harness.machine_metadata(run)
        workloads.WORKLOAD_FUNCTIONS[args.workload](run)
        if traced:
            workloads.probe_layers(run)
            values = harness.per_layer_values(run)
        else:
            values = harness.end_to_end_values(run)
    except Exception:  # noqa: BLE001 - no result line: the run itself broke
        traceback.print_exc()
        return 1
    finally:
        run.cleanup()
    report(run, meta, values)
    print(f"  results: {write_results(run, meta, values)}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
