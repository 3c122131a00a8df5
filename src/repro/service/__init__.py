"""Compilation service layer: content-addressed caching and batch execution.

Stability: public.  (Every ``repro.service.*`` module carries its own
``Stability:`` marker; everything re-exported here is public API.)

This package turns :func:`repro.core.compile_pipeline` into a serving
subsystem (the ROADMAP's "heavy traffic" direction).  Its unit of work is the
unified :class:`repro.api.CompileTarget` request object:

* :mod:`repro.service.cache` — two-tier (LRU + sharded disk) schedule cache
  with optional size/age GC for shared volumes;
* :mod:`repro.service.jobs` — typed result/batch records;
* :mod:`repro.service.executor` — the worker-count settings of the job
  queue that batch items, verify bodies and queue-admitted submits run on;
* :mod:`repro.service.metrics` — per-request latency/hit-rate metrics and
  the per-stage span histograms;
* :mod:`repro.service.observability` — the span tracer (re-exported from
  :mod:`repro.trace`), the :class:`MetricSpec` registry declaring every
  exposed metric key, and the Prometheus text-exposition renderer behind
  ``GET /v1/metrics?format=prometheus``;
* :mod:`repro.service.admission` — admission control: bearer-token
  authentication, per-identity token-bucket rate limiting, the fair job
  queue and its workers (bounded by ``CompileEngine(max_pending=...)``),
  and the in-flight table each engine deduplicates through;
* :mod:`repro.service.engine` — the :class:`CompileEngine` front door
  (``submit``/``submit_batch``);
* :mod:`repro.service.verify` — verification-as-a-service: the
  :class:`VerifyEngine` answering golden-replay, cycle-legality, RTL
  simulation and performance checks with cached, deduplicated,
  admission-controlled verdicts (``POST /v1/verify``);
* :mod:`repro.service.events` — the structured JSON emitter for
  engine-internal events (queue sheds, disk-cache GC), keyed like the
  access log;
* :mod:`repro.service.wire` — the JSON codec that round-trips
  :class:`CompileTarget` requests and flattens results for the network
  boundary;
* :mod:`repro.service.http` — the stdlib HTTP/JSON serving front
  (``python -m repro.service.http``) plus the :class:`ServiceClient` helper,
  loaded on first use of one of its names.

Fingerprinting lives in :mod:`repro.api.fingerprint`.

The prose documentation lives in ``docs/``: ``docs/architecture.md`` (layer
map), ``docs/serving.md`` (HTTP API + admission semantics),
``docs/wire-protocol.md`` (payload formats and versioning) and
``docs/tuning.md`` (pool/cache/admission sizing).

Quickstart::

    from repro import CompileEngine, CompileTarget
    from repro.algorithms import build_algorithm

    target = CompileTarget(build_algorithm("unsharp-m"), image_width=480, image_height=320)
    engine = CompileEngine(workers=4, cache_dir=".imagen-cache")
    acc = engine.compile(target)
    acc = engine.compile(target)
    assert engine.cache.stats.hits >= 1  # second call never touched a solver
"""

from repro.api.fingerprint import (
    FINGERPRINT_VERSION,
    compile_fingerprint,
    dag_fingerprint,
)
from repro.api.target import CompileTarget
from repro.service.admission import (
    MAX_PENDING_ENV_VAR,
    AdmissionError,
    AuthenticationError,
    QueueFullError,
    RateDecision,
    RateLimiter,
    TokenAuthenticator,
    TokenRecord,
    parse_rate_limit,
    parse_token_line,
    validate_max_pending,
)
from repro.service.cache import (
    CacheStats,
    CompileCache,
    DiskCacheStore,
    deserialize_schedule,
    serialize_schedule,
)
from repro.service.engine import (
    WORKERS_ENV_VAR,
    CompileEngine,
    default_worker_count,
)
from repro.service.events import (
    EVENT_LOG_ENV_VAR,
    EventLog,
    configure_event_log,
    emit_event,
    get_event_log,
)
from repro.service.executor import validate_worker_count
from repro.service.jobs import (
    BatchResult,
    CompileResult,
    CompileStatus,
)
from repro.service.metrics import EngineMetrics, RequestTrace, StageHistogram
from repro.service.observability import (
    METRIC_SPECS,
    PROMETHEUS_CONTENT_TYPE,
    MetricSpec,
    Span,
    collect_spans,
    metric_spec,
    registered_keys,
    render_prometheus,
    span_attr,
    trace_span,
)
from repro.service.verify import (
    CHECK_KINDS,
    VERIFY_FORMAT_VERSION,
    VerifyEngine,
    VerifyRequest,
    VerifyResult,
    verify_fingerprint,
)
from repro.service.wire import (
    WIRE_FORMAT_VERSION,
    WireFormatError,
    batch_result_to_wire,
    result_to_wire,
    target_from_wire,
    target_to_wire,
    verify_request_from_wire,
    verify_request_to_wire,
    verify_result_to_wire,
)

__all__ = [
    "AdmissionError",
    "AuthenticationError",
    "BatchResult",
    "CHECK_KINDS",
    "CacheStats",
    "CompileCache",
    "CompileEngine",
    "CompileResult",
    "CompileServiceServer",
    "CompileStatus",
    "CompileTarget",
    "DiskCacheStore",
    "EVENT_LOG_ENV_VAR",
    "EngineMetrics",
    "EventLog",
    "FINGERPRINT_VERSION",
    "MAX_PENDING_ENV_VAR",
    "METRIC_SPECS",
    "MetricSpec",
    "PROMETHEUS_CONTENT_TYPE",
    "QueueFullError",
    "RateDecision",
    "RateLimiter",
    "RequestTrace",
    "ServiceClient",
    "ServiceError",
    "Span",
    "StageHistogram",
    "TokenAuthenticator",
    "TokenRecord",
    "VERIFY_FORMAT_VERSION",
    "VerifyEngine",
    "VerifyRequest",
    "VerifyResult",
    "WIRE_FORMAT_VERSION",
    "WORKERS_ENV_VAR",
    "WireFormatError",
    "batch_result_to_wire",
    "collect_spans",
    "compile_fingerprint",
    "configure_event_log",
    "dag_fingerprint",
    "default_worker_count",
    "deserialize_schedule",
    "emit_event",
    "get_event_log",
    "metric_spec",
    "parse_rate_limit",
    "parse_token_line",
    "registered_keys",
    "render_prometheus",
    "result_to_wire",
    "span_attr",
    "serialize_schedule",
    "start_server",
    "target_from_wire",
    "target_to_wire",
    "trace_span",
    "validate_max_pending",
    "validate_worker_count",
    "verify_fingerprint",
    "verify_request_from_wire",
    "verify_request_to_wire",
    "verify_result_to_wire",
]

#: :mod:`repro.service.http` names, imported when first read, so that
#: ``python -m repro.service.http`` does not find the module already loaded.
_HTTP_NAMES = frozenset(
    {"CompileServiceServer", "ServiceClient", "ServiceError", "start_server"}
)


def __getattr__(name: str):
    if name in _HTTP_NAMES:
        from repro.service import http

        return getattr(http, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
