"""Differential property of the structural linter against its regex oracle.

:func:`repro.rtl.lint.lint_verilog` finds every keyword by literal search and
runs the full patterns only where they can match;
``oracles.lint_verilog_regex`` searches the same patterns at every character.
Their :class:`~repro.rtl.lint.LintReport` must be equal, every list in order,
on

* every catalog design at 480x320 and 1920x1080, coalescing off and on;
* the random chains of ``test_prop_rtl``;
* seeded single-edit mutants of both: a line deleted or duplicated, a range
  digit bumped, a ``begin`` dropped, a ``.port(`` renamed, or one of
  ``end ``, ``module m ``, ``endmodule``, ``u_`` and ``;`` inserted.

Many mutants are broken, so the error paths are compared too (``event`` in
the hypothesis statistics counts them).
"""

from __future__ import annotations

import re
from functools import lru_cache

from hypothesis import Phase, event, given, settings, strategies as st

from oracles import lint_verilog_regex
from repro.algorithms.catalog import ALGORITHM_NAMES, TEMPORAL_ALGORITHM_NAMES, build_algorithm
from repro.api import CompileTarget
from repro.core.compiler import compile_pipeline
from repro.rtl import generate_verilog, lint_verilog

from test_prop_rtl import compiled_schedule

EDITS = ("delete", "duplicate", "bump", "unbegin", "rename", "insert")
INSERTS = ("end ", "module m ", "endmodule", "u_", ";")

_RANGE_RE = re.compile(r"\[[^\]]*\]")
_PORT_RE = re.compile(r"\.([A-Za-z_][A-Za-z0-9_$]*)\s*\(")

edits = st.tuples(st.sampled_from(EDITS), st.integers(0, 1 << 20), st.sampled_from(INSERTS))


@lru_cache(maxsize=1)
def catalog_sources() -> tuple[str, ...]:
    sources = []
    for name in ALGORITHM_NAMES + TEMPORAL_ALGORITHM_NAMES:
        for width, height in ((480, 320), (1920, 1080)):
            for coalescing in (False, True):
                target = CompileTarget(build_algorithm(name), image_width=width, image_height=height)
                schedule = compile_pipeline(target.with_options(coalescing=coalescing)).schedule
                sources.append(generate_verilog(schedule))
    return tuple(sources)


def mutate(source: str, edit: tuple[str, int, str]) -> str:
    """``source`` with one edit; ``pick`` chooses where, modulo the choices."""
    kind, pick, token = edit
    if kind in ("delete", "duplicate"):
        lines = source.split("\n")
        at = pick % len(lines)
        lines[at : at + 1] = [] if kind == "delete" else [lines[at]] * 2
        return "\n".join(lines)
    if kind == "insert":
        at = pick % (len(source) + 1)
        return source[:at] + token + source[at:]
    if kind == "bump":
        spots = [
            match.start() + offset
            for match in _RANGE_RE.finditer(source)
            for offset, char in enumerate(match.group())
            if char.isdigit()
        ]
    elif kind == "unbegin":
        spots = [match.start() for match in re.finditer("begin", source)]
    else:
        spots = [match.start(1) for match in _PORT_RE.finditer(source)]
    if not spots:
        return source
    at = spots[pick % len(spots)]
    if kind == "bump":
        return source[:at] + str((int(source[at]) + 1) % 10) + source[at + 1 :]
    if kind == "unbegin":
        return source[:at] + source[at + len("begin") :]
    return source[:at] + "zz" + source[at:]


def assert_lints_like_the_oracle(source: str) -> None:
    expected = lint_verilog_regex(source)
    event("errors" if expected.errors else "clean")
    assert lint_verilog(source) == expected


def test_every_catalog_design():
    sources = catalog_sources()
    assert len(sources) == 36
    for source in sources:
        report = lint_verilog(source)
        assert report.ok, report.errors
        assert report == lint_verilog_regex(source)


@settings(max_examples=150, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(index=st.integers(0, 35), edit=edits)
def test_catalog_mutants(index, edit):
    assert_lints_like_the_oracle(mutate(catalog_sources()[index], edit))


@settings(max_examples=40, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(schedule=compiled_schedule(), edit=edits)
def test_random_chains_and_their_mutants(schedule, edit):
    source = generate_verilog(schedule)
    assert_lints_like_the_oracle(source)
    assert_lints_like_the_oracle(mutate(source, edit))
