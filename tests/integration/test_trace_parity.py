"""Span trees do not depend on where a job ran.

A cold solve run on the thread pool must come back with the same span tree
(names and nesting) as the identical compile run directly on this thread:
the spans are collected on whichever thread ran the job and ride on the
result.  The engine's stage histograms count each pool solve once, and
``REPRO_TRACE=0`` switches collection off on pool threads too.
"""

from __future__ import annotations

from repro.algorithms import build_algorithm
from repro.api import CompileTarget
from repro.core.compiler import compile_pipeline
from repro.service import CompileCache, CompileEngine, collect_spans

from tests.conftest import TEST_HEIGHT, TEST_WIDTH

W, H = TEST_WIDTH, TEST_HEIGHT


def _target() -> CompileTarget:
    return CompileTarget(build_algorithm("unsharp-m"), image_width=W, image_height=H)


def _name_tree(spans) -> list:
    """The shape of a span forest: names and nesting, no timings."""
    return [[span.name, _name_tree(span.children)] for span in spans]


def _direct_tree() -> list:
    """The span tree of a cold compile run directly on this thread."""
    with collect_spans() as trace:
        compile_pipeline(_target(), cache=CompileCache())
    assert trace.spans
    return _name_tree(trace.spans)


class TestBackendSpanParity:
    def test_pool_batch_matches_a_direct_compile(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        with CompileEngine(workers=1) as engine:
            # A batch, not a submit: single submits run on the calling thread.
            result = engine.submit_batch([_target()]).results[0]
        assert result.spans
        assert _name_tree(result.spans) == _direct_tree()

    def test_queue_admitted_submit_matches_a_direct_compile(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        with CompileEngine(workers=1, max_pending=1) as engine:
            # A cold submit through the admission queue runs on the pool.
            result = engine.submit(_target())
        assert result.source == "solver"
        assert result.spans
        assert _name_tree(result.spans) == _direct_tree()

    def test_pool_result_feeds_histograms_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        with CompileEngine(workers=1) as engine:
            result = engine.submit_batch([_target()]).results[0]
            names = {span.name for span in result.spans}
            # RTL emission is on-demand (generate_verilog), so a plain
            # compile traces the cache/solve/allocate stages only.
            assert {"cache", "solve", "allocate"} <= names
            histograms = engine.metrics.stage_histograms()
        for stage in ("cache", "solve", "allocate"):
            assert histograms[stage]["count"] == 1, stage  # exactly once, not zero/twice
        assert histograms["rtl"]["count"] == 0  # pre-seeded family, no emission ran

    def test_repro_trace_0_disables_pool_collection(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        with CompileEngine(workers=1) as engine:
            result = engine.submit_batch([_target()]).results[0]
            assert result.ok and result.source == "solver"
            assert result.spans == ()
            assert engine.metrics.stage_histograms()["solve"]["count"] == 0
