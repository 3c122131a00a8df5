#!/usr/bin/env python3
"""Render the generated tables in docs/ from their single sources of truth.

The metric-key tables come from the :data:`repro.service.observability.METRIC_SPECS`
registry and the CLI-flag table from the real ``python -m repro.service.http``
argument parser (:func:`repro.service.http.build_parser`) — so the docs cannot
drift from the code without this tool noticing.

Each generated region in a markdown file is delimited by marker comments::

    <!-- generated: metrics-table (tools/gen_docs_tables.py) -->
    ...table...
    <!-- end generated: metrics-table -->

Running the tool rewrites the content between every pair of markers.
``--check`` rewrites nothing and exits non-zero when any region is stale
(CI's docs job runs this; regenerate with ``PYTHONPATH=src python
tools/gen_docs_tables.py``).  ``--root`` points at another repo checkout
(used by the tests against temp copies).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service.http import build_parser as build_http_parser  # noqa: E402
from repro.service.observability import METRIC_SPECS  # noqa: E402
from repro.service.verify import (  # noqa: E402
    CHECK_KINDS,
    VERIFY_PAYLOAD_VERSIONS,
    VERIFY_REQUEST_FIELDS,
)


def _cell(text: str) -> str:
    """One markdown table cell: single line, pipes escaped, dash for empty."""
    text = " ".join(str(text).split())
    return text.replace("|", "\\|") or "—"


def _table(header: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_cell(cell) for cell in row) + " |")
    return "\n".join(lines)


def _metric_rows(endpoint: str) -> list[list[str]]:
    rows = []
    for spec in METRIC_SPECS:
        if spec.endpoint != endpoint:
            continue
        prometheus = f"`{spec.prometheus}`" if spec.prometheus else "—"
        unit = spec.unit or "—"
        rows.append([f"`{spec.key}`", spec.kind, unit, prometheus, spec.help])
    return rows


def render_metrics_table() -> str:
    """The ``GET /v1/metrics`` key table (engine + executor + admission + HTTP)."""
    return _table(
        ["Key", "Kind", "Unit", "Prometheus sample", "Meaning"],
        _metric_rows("/v1/metrics"),
    )


def render_cache_stats_table() -> str:
    """The ``GET /v1/cache/stats`` key table."""
    return _table(
        ["Key", "Kind", "Unit", "Prometheus sample", "Meaning"],
        _metric_rows("/v1/cache/stats"),
    )


def render_prometheus_table() -> str:
    """Every Prometheus-exported sample family, in exposition order."""
    rows = []
    for spec in METRIC_SPECS:
        if spec.kind == "info":
            continue  # folded into repro_service_info below
        if spec.prometheus is None:
            continue
        rows.append([f"`{spec.prometheus}`", spec.kind, f"`{spec.key}`", spec.help])
    rows.append(
        [
            "`repro_service_info`",
            "gauge",
            "—",
            "Always 1; string configuration (executor, auth) as labels.",
        ]
    )
    return _table(["Sample", "Type", "JSON key", "Meaning"], rows)


def render_cli_table() -> str:
    """The ``python -m repro.service.http`` flag table, from the live parser."""
    parser = build_http_parser()
    rows = []
    for action in parser._actions:  # noqa: SLF001 - argparse has no public walk
        if not action.option_strings or action.dest == "help":
            continue
        flags = ", ".join(f"`{flag}`" for flag in action.option_strings)
        if action.choices:
            value = "\\|".join(str(choice) for choice in action.choices)
        elif action.metavar:
            value = action.metavar
        elif action.const is True or action.nargs == 0:
            value = "—"
        else:
            value = action.dest.upper().replace("-", "_")
        default = "—" if action.default in (None, False) else str(action.default)
        help_text = (action.help or "").replace("%(default)s", str(action.default))
        rows.append([flags, value, default, help_text])
    return _table(["Flag", "Value", "Default", "What it does"], rows)


def render_verify_check_kinds() -> str:
    """The ``POST /v1/verify`` check-kind table, from the live registry."""
    return _table(
        ["Check", "What it proves"],
        [[f"`{kind}`", help_text] for kind, help_text in CHECK_KINDS.items()],
    )


def render_verify_request_fields() -> str:
    """The verify request payload's optional fields, from the field registry."""
    return _table(
        ["Field", "Type", "Default", "Meaning"],
        [
            [f"`{name}`", type_name, f"`{default}`", meaning]
            for name, type_name, default, meaning in VERIFY_REQUEST_FIELDS
        ],
    )


def render_verify_metrics_table() -> str:
    """The ``verify_*`` key family of ``GET /v1/metrics``."""
    return _table(
        ["Key", "Kind", "Unit", "Prometheus sample", "Meaning"],
        [
            row
            for row in _metric_rows("/v1/metrics")
            if row[0].startswith("`verify_")
        ],
    )


def render_verify_payload_versions() -> str:
    """The verify-payload version history, from the live compat registry."""
    return _table(
        ["Version", "Check kinds", "Compatibility"],
        [
            [f"`{version}`", kinds, notes]
            for version, kinds, notes in VERIFY_PAYLOAD_VERSIONS
        ],
    )


#: region name -> (relative file, renderer)
REGIONS: dict[str, tuple[str, callable]] = {
    "metrics-table": ("docs/serving.md", render_metrics_table),
    "cache-stats-table": ("docs/serving.md", render_cache_stats_table),
    "cli-table": ("docs/serving.md", render_cli_table),
    "prometheus-table": ("docs/observability.md", render_prometheus_table),
    "verify-check-kinds": ("docs/verification.md", render_verify_check_kinds),
    "verify-metrics-table": ("docs/verification.md", render_verify_metrics_table),
    "verify-request-fields": ("docs/wire-protocol.md", render_verify_request_fields),
    "verify-payload-versions": ("docs/wire-protocol.md", render_verify_payload_versions),
}


def _markers(name: str) -> tuple[str, str]:
    return (
        f"<!-- generated: {name} (tools/gen_docs_tables.py) -->",
        f"<!-- end generated: {name} -->",
    )


def splice(text: str, name: str, body: str) -> str:
    """Replace the region ``name`` in ``text`` with ``body`` (markers kept)."""
    begin, end = _markers(name)
    start = text.index(begin)
    stop = text.index(end, start)
    return text[: start + len(begin)] + "\n" + body + "\n" + text[stop:]


def process(root: Path, *, check: bool) -> list[str]:
    """Regenerate (or, with ``check``, diff) every region; returns problems."""
    problems: list[str] = []
    by_file: dict[Path, list[str]] = {}
    for name, (relpath, _) in REGIONS.items():
        by_file.setdefault(root / relpath, []).append(name)
    for path, names in sorted(by_file.items()):
        if not path.exists():
            problems.append(f"{path}: missing (expected regions: {', '.join(names)})")
            continue
        text = updated = path.read_text(encoding="utf-8")
        for name in names:
            begin, end = _markers(name)
            if begin not in updated or end not in updated:
                problems.append(f"{path}: missing markers for region {name!r}")
                continue
            updated = splice(updated, name, REGIONS[name][1]())
        if updated == text:
            continue
        if check:
            stale = [
                name
                for name in names
                if _markers(name)[0] in text
                and splice(text, name, REGIONS[name][1]()) != text
            ]
            problems.append(
                f"{path}: generated region(s) out of date: {', '.join(stale)} "
                "(run: PYTHONPATH=src python tools/gen_docs_tables.py)"
            )
        else:
            path.write_text(updated, encoding="utf-8")
            print(f"rewrote {path}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the regions are current instead of rewriting them",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=REPO_ROOT,
        help="repository root holding docs/ (default: this checkout)",
    )
    args = parser.parse_args(argv)
    problems = process(args.root, check=args.check)
    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print(f"{len(REGIONS)} generated region(s) {'current' if args.check else 'written'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
