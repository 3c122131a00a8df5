"""Span trees do not depend on the executor backend.

A cold solve run on the thread pool must come back with the same span tree
(names and nesting) as the identical solve run inline: the spans are
collected on whichever thread ran the job and ride on the result.  The
engine's stage histograms count each pool solve once, and ``REPRO_TRACE=0``
switches collection off on pool threads too.
"""

from __future__ import annotations

import asyncio

from repro.algorithms import build_algorithm
from repro.api import CompileTarget
from repro.service import CompileEngine

from tests.conftest import TEST_HEIGHT, TEST_WIDTH

W, H = TEST_WIDTH, TEST_HEIGHT


def _target() -> CompileTarget:
    return CompileTarget(build_algorithm("unsharp-m"), image_width=W, image_height=H)


def _name_tree(spans) -> list:
    """The shape of a span forest: names and nesting, no timings."""
    return [[span.name, _name_tree(span.children)] for span in spans]


class TestBackendSpanParity:
    def test_thread_backend_matches_inline_too(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        with CompileEngine(executor="inline", tracing=True) as inline_engine:
            inline_result = inline_engine.submit(_target())
        with CompileEngine(workers=1, executor="thread") as thread_engine:
            # A batch, not a submit: single submits run on the calling thread.
            thread_result = thread_engine.submit_batch([_target()]).results[0]
        assert thread_result.spans
        assert _name_tree(thread_result.spans) == _name_tree(inline_result.spans)

    def test_async_submit_matches_inline(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        with CompileEngine(executor="inline", tracing=True) as inline_engine:
            inline_result = inline_engine.submit(_target())
        with CompileEngine(workers=1, executor="thread") as thread_engine:
            thread_result = asyncio.run(thread_engine.submit_async(_target()))
        assert thread_result.source == "solver"
        assert thread_result.spans
        assert _name_tree(thread_result.spans) == _name_tree(inline_result.spans)

    def test_pool_result_feeds_histograms_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        with CompileEngine(workers=1, executor="thread") as engine:
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
        with CompileEngine(workers=1, executor="thread") as engine:
            result = engine.submit_batch([_target()]).results[0]
            assert result.ok and result.source == "solver"
            assert result.spans == ()
            assert engine.metrics.stage_histograms()["solve"]["count"] == 0
