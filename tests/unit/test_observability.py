"""The observability surface stays coherent with itself.

Three contracts, all enforced here:

* every key the live JSON endpoints actually serve is declared in the
  ``METRIC_SPECS`` registry (no unregistered metric ships);
* the Prometheus exposition scrapes clean (``tools/check_prometheus.py``'s
  validator) and carries the acceptance-critical per-stage histograms;
* the generated docs tables (``tools/gen_docs_tables.py``) cannot drift —
  ``--check`` passes on this checkout and fails on a doctored copy.

Plus the metrics-layer semantics the exposition relies on: per-source-class
latency percentiles with rejected traces excluded, and exactly-once span
aggregation into the stage histograms.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

from repro.algorithms import build_algorithm
from repro.api import CompileTarget
from repro.service import (
    METRIC_SPECS,
    CompileEngine,
    ServiceClient,
    metric_spec,
    registered_keys,
    render_prometheus,
    start_server,
)
from repro.service.metrics import (
    DEFAULT_STAGES,
    EngineMetrics,
    RequestTrace,
    StageHistogram,
    classify_source,
)
from repro.trace import collect_spans, trace_span

from tests.conftest import TEST_HEIGHT, TEST_WIDTH

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_prometheus  # noqa: E402 - path set up above
import gen_docs_tables  # noqa: E402

W, H = TEST_WIDTH, TEST_HEIGHT


@pytest.fixture(scope="module")
def live_service():
    """One compiled-and-scraped service shared by the surface tests."""
    engine = CompileEngine(workers=1, tracing=True)
    server = start_server(engine)
    with ServiceClient(port=server.port) as client:
        target = CompileTarget(build_algorithm("unsharp-m"), image_width=W, image_height=H)
        client.compile(target)
        client.compile(target)  # repeat: exercises the cache tier and its span
        yield client
    server.stop()
    engine.shutdown()


class TestRegistryCoversLiveEndpoints:
    def test_metrics_keys_are_all_registered(self, live_service):
        served = set(live_service.metrics())
        declared = registered_keys("/v1/metrics")
        assert served <= declared, f"unregistered keys: {sorted(served - declared)}"

    def test_cache_stats_keys_are_all_registered(self, live_service):
        served = set(live_service.cache_stats())
        declared = registered_keys("/v1/cache/stats")
        assert served <= declared, f"unregistered keys: {sorted(served - declared)}"

    def test_registry_is_unique_per_endpoint(self):
        seen = set()
        for spec in METRIC_SPECS:
            assert (spec.endpoint, spec.key) not in seen
            seen.add((spec.endpoint, spec.key))

    def test_counters_export_total_suffixed_samples(self):
        for spec in METRIC_SPECS:
            if spec.kind == "counter" and spec.prometheus:
                name = spec.prometheus.split("{", 1)[0]
                assert name.endswith("_total"), spec.prometheus

    def test_lookup_helpers(self):
        assert metric_spec("requests").kind == "counter"
        assert metric_spec("hits", "/v1/cache/stats").prometheus
        assert metric_spec("no-such-key") is None


class TestPrometheusExposition:
    def test_live_scrape_passes_the_lint(self, live_service):
        text = live_service.metrics_prometheus()
        assert check_prometheus.validate_exposition(text) == []

    def test_required_stage_histograms_present(self, live_service):
        text = live_service.metrics_prometheus()
        for stage in check_prometheus.REQUIRED_STAGES:
            assert f'repro_stage_seconds_count{{stage="{stage}"}}' in text

    def test_trace_flag_returns_nested_span_tree(self, live_service):
        target = CompileTarget(
            build_algorithm("unsharp-m"), image_width=W, image_height=H
        )
        result = live_service.compile(target, trace=True)
        names = [span["name"] for span in result["spans"]]
        assert "cache" in names  # warm repeat: the tier lookup is the story
        untraced = live_service.compile(target)
        assert "spans" not in untraced

    def test_renderer_output_on_empty_metrics_still_lints(self):
        metrics = EngineMetrics()
        text = render_prometheus(metrics.summary(), metrics.stage_histograms())
        assert check_prometheus.validate_exposition(text) == []
        for stage in DEFAULT_STAGES:
            assert f'repro_stage_seconds_count{{stage="{stage}"}} 0' in text
        assert text.endswith("\n")

    def test_validator_rejects_broken_expositions(self):
        assert check_prometheus.validate_exposition("repro_x 1\n")  # no TYPE
        assert check_prometheus.validate_exposition(
            "# TYPE repro_x counter\nrepro_x 1\n"  # counter without _total
        )
        assert check_prometheus.validate_exposition(
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1.0"} 2\nrepro_h_sum 1\nrepro_h_count 2\n'
        )  # histogram without a +Inf bucket
        assert check_prometheus.validate_exposition(
            "# TYPE repro_x gauge\nrepro_x not-a-number\n"
        )


class TestStageHistogram:
    def test_buckets_are_cumulative_and_end_at_inf(self):
        hist = StageHistogram(buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        snapshot = hist.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["sum"] == pytest.approx(5.555)
        assert snapshot["buckets"] == [[0.01, 1], [0.1, 2], [1.0, 3], ["+Inf", 4]]

    def test_observation_on_bucket_boundary_counts_into_it(self):
        hist = StageHistogram(buckets=(0.01, 0.1))
        hist.observe(0.1)
        assert hist.snapshot()["buckets"] == [[0.01, 0], [0.1, 1], ["+Inf", 1]]


class TestEngineMetricsSpans:
    def _spans(self):
        with collect_spans() as trace:
            with trace_span("solve"):
                with trace_span("ilp"):
                    pass
            with trace_span("rtl"):
                pass
        return trace.spans

    def test_observe_spans_counts_nested_stages_separately(self):
        metrics = EngineMetrics()
        metrics.observe_spans(self._spans())
        histograms = metrics.stage_histograms()
        assert histograms["solve"]["count"] == 1
        assert histograms["ilp"]["count"] == 1  # created on demand
        assert histograms["rtl"]["count"] == 1
        assert histograms["cache"]["count"] == 0  # pre-seeded, untouched

    def test_default_stages_pre_seeded(self):
        assert set(DEFAULT_STAGES) <= set(EngineMetrics().stage_histograms())

    def test_summary_carries_stage_seconds(self):
        metrics = EngineMetrics()
        metrics.observe_spans(self._spans())
        stage_seconds = metrics.summary()["stage_seconds"]
        assert stage_seconds["solve"]["count"] == 1
        assert stage_seconds["solve"]["sum_seconds"] >= 0.0


class TestPerClassPercentiles:
    @staticmethod
    def _trace(source: str, seconds: float, ok: bool = True) -> RequestTrace:
        return RequestTrace(
            label="", fingerprint="f", source=source, seconds=seconds, ok=ok
        )

    def test_classify_source(self):
        assert classify_source("memory") == "served_from_cache"
        assert classify_source("disk") == "served_from_cache"
        assert classify_source("solver") == "compiled"
        assert classify_source("rejected") == "rejected"
        assert classify_source("deduplicated") == "deduplicated"

    def test_percentiles_split_by_source_class(self):
        metrics = EngineMetrics()
        for seconds in (1.0, 2.0, 3.0):
            metrics.record(self._trace("solver", seconds))
        for seconds in (0.001, 0.002, 0.003):
            metrics.record(self._trace("memory", seconds))
        summary = metrics.summary()
        assert summary["p50_seconds_compiled"] == 2.0
        assert summary["p50_seconds_served_from_cache"] == 0.002
        # The blended p50 sits between the two class medians.
        assert 0.003 <= summary["p50_seconds"] <= 2.0

    def test_rejected_traces_excluded_from_every_aggregate(self):
        metrics = EngineMetrics()
        for seconds in (1.0, 2.0, 3.0):
            metrics.record(self._trace("solver", seconds))
        baseline = metrics.summary()
        for _ in range(50):  # a shed storm of zero-latency traces
            metrics.record(self._trace("rejected", 0.0, ok=False))
        stormy = metrics.summary()
        assert stormy["rejected"] == 50
        for key in (
            "mean_seconds",
            "p50_seconds",
            "p95_seconds",
            "p50_seconds_compiled",
            "p95_seconds_compiled",
        ):
            assert stormy[key] == baseline[key], key

    def test_empty_window_percentile_is_zero(self):
        assert EngineMetrics().latency_percentile(0.95) == 0.0
        assert EngineMetrics().latency_percentile(0.5, "compiled") == 0.0


class TestGeneratedDocsTables:
    def test_check_passes_on_this_checkout(self):
        assert gen_docs_tables.process(REPO_ROOT, check=True) == []

    def _copy_docs(self, tmp_path: Path) -> Path:
        docs = tmp_path / "docs"
        docs.mkdir()
        for name in ("serving.md", "observability.md", "verification.md", "wire-protocol.md"):
            shutil.copy(REPO_ROOT / "docs" / name, docs / name)
        return tmp_path

    def test_check_fails_on_drifted_copy(self, tmp_path):
        root = self._copy_docs(tmp_path)
        page = root / "docs" / "serving.md"
        page.write_text(
            page.read_text(encoding="utf-8").replace(
                "| `requests` |", "| `requests_renamed` |", 1
            ),
            encoding="utf-8",
        )
        problems = gen_docs_tables.process(root, check=True)
        assert problems and "metrics-table" in problems[0]

    def test_check_fails_on_missing_markers(self, tmp_path):
        root = self._copy_docs(tmp_path)
        page = root / "docs" / "observability.md"
        begin, end = gen_docs_tables._markers("prometheus-table")
        text = page.read_text(encoding="utf-8").replace(begin, "").replace(end, "")
        page.write_text(text, encoding="utf-8")
        problems = gen_docs_tables.process(root, check=True)
        assert any("prometheus-table" in problem for problem in problems)

    def test_regenerate_repairs_a_drifted_copy(self, tmp_path):
        root = self._copy_docs(tmp_path)
        page = root / "docs" / "serving.md"
        original = page.read_text(encoding="utf-8")
        page.write_text(
            original.replace("| `requests` |", "| `requests_renamed` |", 1),
            encoding="utf-8",
        )
        assert gen_docs_tables.process(root, check=False) == []
        assert page.read_text(encoding="utf-8") == original
