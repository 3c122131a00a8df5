"""Smoke test of the benchmark at reduced size.

Run from the root of a checkout::

    python3 perfbench/smoke.py

It checks that ``BENCHMARK.json`` matches the declarations in ``harness.py``
and keeps to the benchmark file format, that every workload runs (untraced
and traced, with ``--smoke`` design sets and 2-second runs) and prints
exactly the metric names and units ``BENCHMARK.json`` declares with every
output check passing, and that the benchmark fails cleanly, without a
result line, in a directory holding only ``BENCHMARK.json`` and
``perfbench/``.  Exits 0 when everything holds.  Takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile

import harness

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def manifest_problems(manifest: dict) -> list[str]:
    problems = []
    if manifest != harness.manifest():
        problems.append("BENCHMARK.json differs from harness.manifest(); run --write-manifest")
    if set(manifest) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"unexpected keys {sorted(manifest)}")
    if not 2 <= len(manifest["workloads"]) <= 8:
        problems.append("2 to 8 workloads")
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in manifest[key]]
    problems += [f"bad name {name!r}" for name in names if not NAME.match(name)]
    problems += [f"name {name!r} used twice" for name in set(names) if names.count(name) > 1]
    for entry in manifest["workloads"]:
        if len(entry["why"]) > 200 or "\n" in entry["why"]:
            problems.append(f"why of {entry['name']} is not one line of at most 200 characters")
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        if not UNIT.match(entry["unit"]) or entry["better"] not in ("higher", "lower"):
            problems.append(f"bad unit or direction on {entry['name']}")
    for entry in manifest["end_to_end"]:
        if not 0 < entry["bound"] <= 0.25:
            problems.append(f"bound of {entry['name']} outside (0, 0.25]")
    setup = [entry for entry in manifest["end_to_end"] if entry["name"] == "setup_s"]
    if not setup or (setup[0]["unit"], setup[0]["better"]) != ("s", "lower"):
        problems.append("setup_s (s, lower) missing")
    return problems


def run_problems(manifest: dict, workload: str, trace: int) -> list[str]:
    command = [
        *manifest["command"], "--workload", workload, "--seed", "7",
        "--seconds", "2", "--trace", str(trace), "--smoke",
    ]
    completed = subprocess.run(
        command, cwd=harness.ROOT, capture_output=True, text=True, timeout=180
    )
    if completed.returncode != 0:
        return [f"exit {completed.returncode}: {completed.stderr[-1500:]}"]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"outputs not all correct: {result['failed']}/{result['attempted']} failed")
    declared = {
        entry["name"]: entry["unit"]
        for entry in manifest["per_layer" if trace else "end_to_end"]
    }
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if printed != declared:
        problems.append(f"metrics differ: {sorted(set(printed) ^ set(declared))} / units")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)) or isinstance(metric["value"], bool):
            problems.append(f"{name} is not a number")
    return problems


def bare_directory_problems(manifest: dict) -> list[str]:
    """The benchmark must fail without a result where the program is absent."""
    harness.WORK_DIR.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=harness.WORK_DIR)
    try:
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            harness.BENCH_DIR, f"{bare}/perfbench", ignore=shutil.ignore_patterns("__pycache__")
        )
        command = [*manifest["command"], "--workload", "compile-cold", "--seed", "1",
                   "--seconds", "1", "--trace", "0"]
        completed = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if completed.returncode == 0 or '"metrics"' in completed.stdout:
        return ["did not fail cleanly in a directory without the program"]
    return []


def main() -> int:
    manifest = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    checks = [("BENCHMARK.json", manifest_problems(manifest))]
    for entry in manifest["workloads"]:
        for trace in (0, 1):
            checks.append(
                (f"{entry['name']} --trace {trace}", run_problems(manifest, entry["name"], trace))
            )
    checks.append(("bare directory", bare_directory_problems(manifest)))
    failed = False
    for label, problems in checks:
        print(f"{'ok  ' if not problems else 'FAIL'} {label}")
        for problem in problems:
            print(f"     {problem}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
