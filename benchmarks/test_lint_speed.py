"""Structural-lint speed guard: literal-first scans against the regex oracle.

``lint_verilog`` finds each keyword by literal search and runs the full
patterns only where they can match; ``lint_verilog_regex`` (the oracle in
``tests/oracles.py``) searches patterns that open with ``\\b`` or ``^\\s*``,
which Python's ``re`` tries at every character.  On the largest catalog
source, canny-m at 1080p (about 55 KB), the two must agree and the
literal-first lint must be at least 4x faster.
"""

from __future__ import annotations

import time

from repro import compile_pipeline
from repro.algorithms import build_algorithm
from repro.api import CompileTarget
from repro.rtl import generate_verilog, lint_verilog

from oracles import lint_verilog_regex


def _best_of_interleaved(runs: int, *fns) -> list[float]:
    """Best time of each function over ``runs`` repetitions that run each
    once in turn, so a slow stretch of the machine hits both alike."""
    best = [float("inf")] * len(fns)
    for _ in range(runs):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def test_literal_first_lint_is_4x_faster_than_regex_search(benchmark):
    """Acceptance: ``lint_verilog`` >= 4x ``lint_verilog_regex`` on canny-m at 1080p."""
    target = CompileTarget(build_algorithm("canny-m"), image_width=1920, image_height=1080)
    source = generate_verilog(compile_pipeline(target).schedule)

    def both():
        report = lint_verilog(source)
        assert report.ok, report.errors
        assert report == lint_verilog_regex(source)
        return _best_of_interleaved(
            5, lambda: lint_verilog(source), lambda: lint_verilog_regex(source)
        )

    fast, regex = benchmark.pedantic(both, rounds=1, iterations=1)
    speedup = regex / fast if fast > 0 else float("inf")
    print(
        f"\nlint (canny-m 1920x1080, {len(source) // 1000} KB): literal-first "
        f"{fast * 1000:.2f} ms, regex search {regex * 1000:.2f} ms ({speedup:.1f}x)"
    )
    assert fast * 4 <= regex, f"literal-first lint only {speedup:.1f}x faster than regex search"
