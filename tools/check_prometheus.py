#!/usr/bin/env python3
"""Lint a Prometheus text exposition (format 0.0.4).

:func:`validate_exposition` checks what a scraper would choke on: samples
must parse, every sample family must be declared with ``# TYPE`` before its
first sample, counter names must end in ``_total`` (``_sum``/``_count``/
``_bucket`` reserved for histograms), and every histogram needs a
``le="+Inf"`` bucket equal to its ``_count``.

CLI usage::

    PYTHONPATH=src python tools/check_prometheus.py exposition.txt
    ... | PYTHONPATH=src python tools/check_prometheus.py -
    PYTHONPATH=src python tools/check_prometheus.py --from-local-server

``--from-local-server`` boots an in-process compile service on an ephemeral
port, compiles one pipeline, fetches ``GET /v1/metrics?format=prometheus``
and lints it — additionally requiring the per-stage histogram series CI pins
(solve/allocate/rtl/cache).  This is the CI exposition check.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import defaultdict
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

_SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)(\s+\S+)?$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")

#: Stage histogram series the service must always expose (pre-seeded even at
#: zero traffic); required by ``--from-local-server``.
REQUIRED_STAGES = ("solve", "allocate", "rtl", "cache")


def _family(name: str, types: dict) -> str:
    """Map a sample name to its declared family (histogram suffix aware)."""
    for suffix in _HISTOGRAM_SUFFIXES:
        base = name[: -len(suffix)] if name.endswith(suffix) else None
        if base and types.get(base) in ("histogram", "summary"):
            return base
    return name


def validate_exposition(text: str) -> list[str]:
    """All format problems in ``text``; an empty list means it scrapes clean."""
    problems: list[str] = []
    types: dict[str, str] = {}
    buckets: dict[tuple[str, tuple], dict[str, float]] = defaultdict(dict)
    counts: dict[tuple[str, tuple], float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram", "summary", "untyped"):
                problems.append(f"line {lineno}: malformed TYPE comment: {line!r}")
            elif parts[2] in types:
                problems.append(f"line {lineno}: duplicate TYPE for {parts[2]}")
            else:
                types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparsable sample: {line!r}")
            continue
        name, _, raw_labels, value = match.group(1), match.group(2), match.group(3), match.group(4)
        labels = dict(_LABEL_RE.findall(raw_labels)) if raw_labels else {}
        try:
            number = float(value)
        except ValueError:
            problems.append(f"line {lineno}: non-numeric value {value!r} for {name}")
            continue
        family = _family(name, types)
        kind = types.get(family)
        if kind is None:
            problems.append(f"line {lineno}: sample {name} has no preceding # TYPE")
            continue
        if kind == "counter" and not name.endswith("_total"):
            problems.append(f"line {lineno}: counter {name} must end in _total")
        if kind == "histogram" and name.endswith("_bucket"):
            key = (family, tuple(sorted((k, v) for k, v in labels.items() if k != "le")))
            buckets[key][labels.get("le", "")] = number
        if kind == "histogram" and name.endswith("_count"):
            key = (family, tuple(sorted(labels.items())))
            counts[key] = number
    for (family, labels), series in buckets.items():
        where = f"{family}{{{dict(labels)}}}" if labels else family
        if "+Inf" not in series:
            problems.append(f"{where}: histogram has no le=\"+Inf\" bucket")
        elif (family, labels) in counts and series["+Inf"] != counts[(family, labels)]:
            problems.append(
                f"{where}: le=\"+Inf\" bucket ({series['+Inf']:g}) != _count "
                f"({counts[(family, labels)]:g})"
            )
    return problems


def _scrape_local_server() -> str:
    """Boot an in-process service, compile one target, return its exposition."""
    from repro.algorithms import build_algorithm
    from repro.api.target import CompileTarget
    from repro.service import CompileEngine, ServiceClient, start_server

    engine = CompileEngine(workers=1, tracing=True)
    server = start_server(engine)
    try:
        with ServiceClient(port=server.port) as client:
            target = CompileTarget(
                build_algorithm("unsharp-m"), image_width=64, image_height=48
            )
            client.compile(target)
            client.compile(target)  # the repeat exercises the cache span
            return client.metrics_prometheus()
    finally:
        server.stop()
        engine.shutdown()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "source",
        nargs="?",
        help="exposition file to lint, or '-' for stdin",
    )
    parser.add_argument(
        "--from-local-server",
        action="store_true",
        help="boot an in-process service, scrape it, and lint the response "
        "(also requires the per-stage histogram series)",
    )
    args = parser.parse_args(argv)
    if args.from_local_server == (args.source is not None):
        parser.error("give an exposition file, '-', or --from-local-server")
    if args.from_local_server:
        text = _scrape_local_server()
    elif args.source == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.source).read_text(encoding="utf-8")
    problems = validate_exposition(text)
    if args.from_local_server:
        for stage in REQUIRED_STAGES:
            if f'repro_stage_seconds_count{{stage="{stage}"}}' not in text:
                problems.append(f"exposition is missing the {stage!r} stage histogram")
    for problem in problems:
        print(f"FAIL {problem}")
    samples = sum(
        1
        for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    )
    print(
        f"linted {samples} samples -> "
        f"{'OK' if not problems else f'{len(problems)} problem(s)'}"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
