"""Observability surface: span tracing, metric registry, Prometheus export.

Stability: public.

Three things live here, and they are deliberately one module because they
must agree with each other:

* **The span tracer** — re-exported from :mod:`repro.trace` (which is
  stdlib-only so the core/ILP/RTL layers can instrument themselves without
  importing the serving layer): :func:`trace_span`, :func:`span_attr`,
  :class:`collect_spans`, :class:`Span`, and the payload codecs.  The hot
  path emits spans named after the stages of the paper's flow — ``cache``
  (tier lookup), ``solve`` (ILP scheduling, with the nested ``ilp`` backend
  span), ``allocate`` (line-buffer realization), ``coalescing_fallback``
  (the second solve of the auto policy), ``rtl`` (Verilog generation) and
  ``disk_read``/``disk_write`` (disk-tier I/O).
* **The metric registry** — :class:`MetricSpec` declares every key the
  service exposes on ``GET /v1/metrics`` and ``GET /v1/cache/stats``: its
  JSON key, kind, unit, help text, stability, and (when exported) its
  Prometheus sample name.  The registry is the single source of truth: the
  exposition renderer walks it, the documentation tables in ``docs/`` are
  generated from it (``tools/gen_docs_tables.py``), and a unit test pins
  that no endpoint key ships unregistered.
* **The exposition renderer** — :func:`render_prometheus` turns the flat
  metrics JSON plus the engine's per-stage histograms into Prometheus text
  exposition format 0.0.4 (the ``GET /v1/metrics?format=prometheus``
  response, content type :data:`PROMETHEUS_CONTENT_TYPE`).

See ``docs/observability.md`` for the span model and a scrape example.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.service.metrics import (
    DEFAULT_BUCKETS,
    DEFAULT_STAGES,
    SOURCE_CLASSES,
    StageHistogram,
    classify_source,
)
from repro.trace import (
    TRACE_ENV_VAR,
    Span,
    collect_spans,
    default_tracing,
    flatten_spans,
    span_attr,
    spans_from_payload,
    spans_to_payload,
    trace_span,
    tracing_active,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_STAGES",
    "METRIC_SPECS",
    "PROMETHEUS_CONTENT_TYPE",
    "SOURCE_CLASSES",
    "STAGE_HISTOGRAM_FAMILY",
    "TRACE_ENV_VAR",
    "MetricSpec",
    "Span",
    "StageHistogram",
    "classify_source",
    "collect_spans",
    "default_tracing",
    "flatten_spans",
    "metric_spec",
    "registered_keys",
    "render_prometheus",
    "span_attr",
    "spans_from_payload",
    "spans_to_payload",
    "trace_span",
    "tracing_active",
]

#: Content type of the text exposition response (Prometheus format 0.0.4).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Family name of the per-stage latency histograms; one
#: ``{stage="..."}``-labelled histogram per span name.
STAGE_HISTOGRAM_FAMILY = "repro_stage_seconds"


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric key the service exposes.

    Attributes
    ----------
    key:
        The key in the endpoint's JSON payload.
    kind:
        ``counter``/``gauge``/``histogram`` (Prometheus-typed), ``info``
        (a string that becomes a label on ``repro_service_info``), or
        ``object`` (structured JSON with no Prometheus form).
    unit:
        Unit of the value (``""`` for dimensionless counts).
    help:
        One-line meaning; for Prometheus-exported metrics this is the
        ``# HELP`` text, shared by every member of a sample family.
    stability:
        ``stable`` (renames are breaking) or ``experimental``.
    prometheus:
        Sample name in the exposition, optionally with fixed labels
        (``repro_latency_seconds{stat="p50",class="all"}``); ``None`` for
        JSON-only keys.
    endpoint:
        Which endpoint serves the key.
    """

    key: str
    kind: str
    unit: str
    help: str
    stability: str = "stable"
    prometheus: str | None = None
    endpoint: str = "/v1/metrics"


_LATENCY_HELP = "Request latency over the recent-trace window, by statistic and source class (rejected traces excluded)."

#: Every key of the flat ``GET /v1/metrics`` object and of
#: ``GET /v1/cache/stats``, in documentation order.  A unit test pins that
#: live endpoint payloads never carry a key missing here.
METRIC_SPECS: tuple[MetricSpec, ...] = (
    # -- engine request counters (EngineMetrics.summary) ---------------------
    MetricSpec("requests", "counter", "", "Compile jobs accounted by the engine, all source classes.", prometheus="repro_requests_total"),
    MetricSpec("compiled", "counter", "", "Jobs answered by a fresh generator run (at least one solve).", prometheus="repro_compiled_total"),
    MetricSpec("served_from_cache", "counter", "", "Jobs answered entirely from the memory or disk cache tier.", prometheus="repro_served_from_cache_total"),
    MetricSpec("deduplicated", "counter", "", "Jobs that joined an identical in-flight request instead of running.", prometheus="repro_deduplicated_total"),
    MetricSpec("rejected", "counter", "", "Compile jobs shed by the job queue, as seen in the engine's request traces (the queue's rejected_total, which counts verifies too, is authoritative).", prometheus="repro_rejected_results_total"),
    MetricSpec("errors", "counter", "", "Jobs that failed (infeasible design points, internal errors, sheds).", prometheus="repro_errors_total"),
    MetricSpec("batches", "counter", "", "Batch submissions (each containing many jobs).", prometheus="repro_batches_total"),
    MetricSpec("total_seconds", "counter", "seconds", "Wall-clock seconds spent answering requests, summed over jobs.", prometheus="repro_request_seconds_total"),
    # -- latency aggregates --------------------------------------------------
    MetricSpec("mean_seconds", "gauge", "seconds", _LATENCY_HELP, prometheus='repro_latency_seconds{stat="mean",class="all"}'),
    MetricSpec("p50_seconds", "gauge", "seconds", _LATENCY_HELP, prometheus='repro_latency_seconds{stat="p50",class="all"}'),
    MetricSpec("p95_seconds", "gauge", "seconds", _LATENCY_HELP, prometheus='repro_latency_seconds{stat="p95",class="all"}'),
    MetricSpec("p50_seconds_compiled", "gauge", "seconds", _LATENCY_HELP, prometheus='repro_latency_seconds{stat="p50",class="compiled"}'),
    MetricSpec("p95_seconds_compiled", "gauge", "seconds", _LATENCY_HELP, prometheus='repro_latency_seconds{stat="p95",class="compiled"}'),
    MetricSpec("p50_seconds_served_from_cache", "gauge", "seconds", _LATENCY_HELP, prometheus='repro_latency_seconds{stat="p50",class="served_from_cache"}'),
    MetricSpec("p95_seconds_served_from_cache", "gauge", "seconds", _LATENCY_HELP, prometheus='repro_latency_seconds{stat="p95",class="served_from_cache"}'),
    # -- per-stage spans -----------------------------------------------------
    MetricSpec("stage_seconds", "histogram", "seconds", "Per-stage span durations (cache/solve/allocate/rtl and nested stages); JSON carries count/sum/mean per stage, the exposition carries full histograms.", prometheus=STAGE_HISTOGRAM_FAMILY + '{stage="..."}'),
    # -- ILP solves (EngineMetrics, from ilp spans) -------------------------
    MetricSpec("ilp_solves", "counter", "", "Scheduling solves observed in request spans, one `ilp` span each whichever path answered (the flow kernel or the big-M model).", prometheus="repro_ilp_solves_total"),
    # -- workers (CompileEngine.executor_stats) ------------------------------
    MetricSpec("executor", "info", "", "Active execution backend name (label on repro_service_info)."),
    MetricSpec("workers", "gauge", "workers", "Threads that run the job queue's compiles and verifies.", prometheus="repro_workers"),
    # -- job queue (CompileEngine.admission_stats) ---------------------------
    MetricSpec("max_pending", "gauge", "", "Bound on jobs waiting beyond the free workers (null when unbounded).", prometheus="repro_max_pending"),
    MetricSpec("queue_depth", "gauge", "", "Compile and verify jobs queued and not yet started, bounded or not.", prometheus="repro_queue_depth"),
    MetricSpec("inflight", "gauge", "", "Queued compile and verify jobs that have started and not finished.", prometheus="repro_inflight"),
    MetricSpec("admitted_total", "counter", "", "Compile and verify jobs the queue accepted since start.", prometheus="repro_admitted_total"),
    MetricSpec("rejected_total", "counter", "", "Compile and verify jobs the bounded queue shed since start (authoritative shed count).", prometheus="repro_rejected_total"),
    MetricSpec("queued_clients", "gauge", "", "Distinct client identities with work waiting in the queue.", prometheus="repro_queued_clients"),
    # -- verification engine (VerifyEngine.stats) ----------------------------
    MetricSpec("verify_requests", "counter", "", "Verification jobs accounted by the verify engine, all source classes.", prometheus="repro_verify_requests_total"),
    MetricSpec("verify_verified", "counter", "", "Verification jobs that ran checks fresh (replay and/or legality analysis).", prometheus="repro_verify_verified_total"),
    MetricSpec("verify_passed", "counter", "", "Completed verifications whose checks all passed.", prometheus="repro_verify_passed_total"),
    MetricSpec("verify_failed", "counter", "", "Completed verifications with at least one failed check (mismatch or violation).", prometheus="repro_verify_failed_total"),
    MetricSpec("verify_errors", "counter", "", "Verification jobs that errored before producing a verdict (infeasible compiles, internal errors).", prometheus="repro_verify_errors_total"),
    MetricSpec("verify_rejected", "counter", "", "Verification jobs shed by the engine's bounded job queue, the one compiles share.", prometheus="repro_verify_rejected_total"),
    MetricSpec("verify_served_from_memory", "counter", "", "Verdicts answered from the in-memory verdict cache.", prometheus="repro_verify_served_from_memory_total"),
    MetricSpec("verify_served_from_disk", "counter", "", "Verdicts answered from the disk verdict tier.", prometheus="repro_verify_served_from_disk_total"),
    MetricSpec("verify_deduplicated", "counter", "", "Verification jobs that joined an identical in-flight verification.", prometheus="repro_verify_deduplicated_total"),
    MetricSpec("verify_rtl_simulations", "counter", "", "RTL simulations run by fresh `rtl` checks (cached verdicts do not re-simulate).", prometheus="repro_verify_rtl_simulations_total"),
    MetricSpec("verify_perf_measurements", "counter", "", "Performance measurements run by fresh `perf` checks (achieved cycles/frame vs the schedule bound).", prometheus="repro_verify_perf_measurements_total"),
    MetricSpec("verify_seconds_total", "counter", "seconds", "Wall-clock seconds spent answering verification requests.", prometheus="repro_verify_seconds_total"),
    MetricSpec("verify_cache_entries", "gauge", "", "Entries in the in-memory verdict cache.", prometheus="repro_verify_cache_entries"),
    # -- HTTP front ----------------------------------------------------------
    MetricSpec("throttled_total", "counter", "", "Requests answered 429 by the per-identity rate limiter.", prometheus="repro_throttled_total"),
    MetricSpec("rate_limit", "object", "", "Rate-limiter configuration and counters (present when --rate-limit is set)."),
    MetricSpec("auth", "info", "", "Authentication mode, token or anonymous (label on repro_service_info)."),
    # -- cache occupancy (GET /v1/cache/stats) -------------------------------
    MetricSpec("entries", "gauge", "", "Entries in the in-memory LRU tier.", prometheus="repro_cache_entries", endpoint="/v1/cache/stats"),
    MetricSpec("max_entries", "gauge", "", "Capacity of the in-memory LRU tier.", prometheus="repro_cache_max_entries", endpoint="/v1/cache/stats"),
    MetricSpec("hits", "counter", "", "Cache hits, both tiers (a disk hit also counts here).", prometheus="repro_cache_hits_total", endpoint="/v1/cache/stats"),
    MetricSpec("misses", "counter", "", "Cache misses (the caller had to run a generator).", prometheus="repro_cache_misses_total", endpoint="/v1/cache/stats"),
    MetricSpec("evictions", "counter", "", "Entries evicted from the memory LRU.", prometheus="repro_cache_evictions_total", endpoint="/v1/cache/stats"),
    MetricSpec("stores", "counter", "", "Freshly solved schedules recorded in the cache.", prometheus="repro_cache_stores_total", endpoint="/v1/cache/stats"),
    MetricSpec("disk_hits", "counter", "", "Hits served by the disk tier (promoted into memory).", prometheus="repro_cache_disk_hits_total", endpoint="/v1/cache/stats"),
    MetricSpec("disk_stores", "counter", "", "Schedules persisted to the disk tier.", prometheus="repro_cache_disk_stores_total", endpoint="/v1/cache/stats"),
    MetricSpec("hit_rate", "gauge", "", "hits / (hits + misses) since start.", prometheus="repro_cache_hit_rate", endpoint="/v1/cache/stats"),
    MetricSpec("disk_entries", "gauge", "", "Entries in the disk tier (present with --cache-dir).", prometheus="repro_cache_disk_entries", endpoint="/v1/cache/stats"),
    MetricSpec("disk_directory", "info", "", "Disk-tier directory (present with --cache-dir).", endpoint="/v1/cache/stats"),
    MetricSpec("disk_bytes", "gauge", "bytes", "Total size of disk-tier entries (bounded volumes only).", prometheus="repro_cache_disk_bytes", endpoint="/v1/cache/stats"),
    MetricSpec("disk_max_bytes", "gauge", "bytes", "Configured disk-tier size bound (bounded volumes only).", prometheus="repro_cache_disk_max_bytes", endpoint="/v1/cache/stats"),
    MetricSpec("disk_max_age_seconds", "gauge", "seconds", "Configured disk-tier age bound (bounded volumes only).", prometheus="repro_cache_disk_max_age_seconds", endpoint="/v1/cache/stats"),
)

_SPECS_BY_ENDPOINT_KEY = {(spec.endpoint, spec.key): spec for spec in METRIC_SPECS}


def metric_spec(key: str, endpoint: str = "/v1/metrics") -> MetricSpec | None:
    """Look up one registered spec by JSON key (``None`` when unregistered)."""
    return _SPECS_BY_ENDPOINT_KEY.get((endpoint, key))


def registered_keys(endpoint: str = "/v1/metrics") -> set[str]:
    """All JSON keys the registry declares for one endpoint."""
    return {spec.key for spec in METRIC_SPECS if spec.endpoint == endpoint}


# ---------------------------------------------------------------------------
# Prometheus text exposition (format 0.0.4)
# ---------------------------------------------------------------------------
def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return format(float(value), "g")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _family_of(sample: str) -> str:
    return sample.split("{", 1)[0]


def render_prometheus(
    values: dict,
    stage_histograms: dict[str, dict] | None = None,
    cache: dict | None = None,
) -> str:
    """Render the metrics payloads as Prometheus text exposition 0.0.4.

    ``values`` is the flat ``GET /v1/metrics`` object, ``stage_histograms``
    the engine's :meth:`EngineMetrics.stage_histograms` snapshot (cumulative
    buckets), ``cache`` the optional ``GET /v1/cache/stats`` object (its
    gauges and counters are exported under ``repro_cache_*``).  Only
    registered numeric keys are exported; string-valued ``info`` keys become
    labels on one ``repro_service_info`` gauge, and ``object`` keys stay
    JSON-only.  Samples keep the registry's declared order, and HELP/TYPE
    headers are emitted once per family.
    """
    lines: list[str] = []
    seen_families: set[str] = set()
    info_labels: list[tuple[str, str]] = []
    for spec in METRIC_SPECS:
        payload = values if spec.endpoint == "/v1/metrics" else cache
        if payload is None or spec.key not in payload:
            continue
        value = payload[spec.key]
        if spec.kind == "info":
            if spec.endpoint == "/v1/metrics" and isinstance(value, str):
                info_labels.append((spec.key, value))
            continue
        if spec.prometheus is None or spec.kind in ("object", "histogram"):
            continue
        if value is None or not isinstance(value, (int, float)):
            continue  # e.g. max_pending: null on unbounded engines
        family = _family_of(spec.prometheus)
        if family not in seen_families:
            seen_families.add(family)
            lines.append(f"# HELP {family} {spec.help}")
            lines.append(f"# TYPE {family} {spec.kind}")
        lines.append(f"{spec.prometheus} {_format_value(value)}")

    if stage_histograms:
        histogram_spec = metric_spec("stage_seconds")
        lines.append(f"# HELP {STAGE_HISTOGRAM_FAMILY} {histogram_spec.help}")
        lines.append(f"# TYPE {STAGE_HISTOGRAM_FAMILY} histogram")
        for stage in sorted(stage_histograms):
            snapshot = stage_histograms[stage]
            label = _escape_label(stage)
            for bound, count in snapshot["buckets"]:
                le = bound if bound == "+Inf" else _format_value(bound)
                lines.append(
                    f'{STAGE_HISTOGRAM_FAMILY}_bucket{{stage="{label}",le="{le}"}} {count}'
                )
            lines.append(
                f'{STAGE_HISTOGRAM_FAMILY}_sum{{stage="{label}"}} {_format_value(snapshot["sum"])}'
            )
            lines.append(
                f'{STAGE_HISTOGRAM_FAMILY}_count{{stage="{label}"}} {snapshot["count"]}'
            )

    if info_labels:
        rendered = ",".join(
            f'{key}="{_escape_label(value)}"' for key, value in info_labels
        )
        lines.append("# HELP repro_service_info Static service configuration as labels.")
        lines.append("# TYPE repro_service_info gauge")
        lines.append(f"repro_service_info{{{rendered}}} 1")
    return "\n".join(lines) + "\n"
