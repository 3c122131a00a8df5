"""Per-engine request metrics: latency, throughput and cache effectiveness.

Stability: public.

The engine records one :class:`RequestTrace` per job into a bounded ring and
keeps aggregate counters, so long-running services can expose hit rates and
latency percentiles without unbounded memory growth.  Jobs shed by the
admission queue arrive as traces with ``source="rejected"`` and count toward
``errors`` and the ``rejected`` counter; the queue's own ``rejected_total``
counter (surfaced on ``GET /v1/metrics``) is the authoritative shed count.

Latency aggregates are **source-class aware**: a percentile over a window
that mixes microsecond cache hits with second-scale ILP solves describes
neither, and a burst of queue sheds (zero-latency traces) used to drag p50
to zero exactly when the service was at its slowest.  ``summary()`` therefore
reports ``p50_seconds``/``p95_seconds`` over non-rejected traces only, plus
per-class percentiles for the two classes operators actually tune:
``compiled`` (fresh generator runs) and ``served_from_cache``.

Per-stage timing comes from the span tracer (:mod:`repro.trace`): the engine
feeds each owned result's span tree into :meth:`EngineMetrics.observe_spans`,
which aggregates stage durations into :class:`StageHistogram` buckets.  The
histograms back the ``stage_seconds`` summary block and the per-stage
``repro_stage_seconds`` histograms of the Prometheus exposition
(:mod:`repro.service.observability`).
"""

from __future__ import annotations

import bisect
import threading
from collections import deque
from dataclasses import dataclass, field

from repro.trace import Span, flatten_spans

#: Latency bucket upper bounds (seconds) for per-stage histograms.  Spans
#: range from microsecond cache lookups to multi-second enumeration solves,
#: so the grid is log-spaced across five decades; observations beyond the
#: last bound land in the implicit ``+Inf`` overflow bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Stages pre-seeded in every :class:`EngineMetrics`, so the Prometheus
#: exposition always carries the acceptance-critical stage families (with
#: zero counts) even before the first traced compile — dashboards and
#: scrapers never see the schema change as traffic arrives.
DEFAULT_STAGES: tuple[str, ...] = (
    "cache", "solve", "allocate", "rtl", "verify", "replay", "lint",
)

#: Source classes for latency reporting; :func:`classify_source` maps the
#: raw trace sources (``memory``/``disk``/``solver``/...) onto them.
SOURCE_CLASSES: tuple[str, ...] = (
    "compiled", "served_from_cache", "deduplicated", "rejected",
)


def classify_source(source: str) -> str:
    """Map a raw result source onto its latency class.

    ``memory``/``disk`` are one class (``served_from_cache``) — the split
    between tiers is a cache property, not a latency class — and anything
    that ran a generator (``solver`` and friends) is ``compiled``.
    """
    if source in ("memory", "disk"):
        return "served_from_cache"
    if source in ("deduplicated", "rejected"):
        return source
    return "compiled"


@dataclass(frozen=True)
class RequestTrace:
    """One completed compile job, as seen by the engine."""

    label: str
    fingerprint: str
    source: str
    seconds: float
    ok: bool

    @property
    def source_class(self) -> str:
        return classify_source(self.source)


class StageHistogram:
    """Fixed-bucket latency histogram for one pipeline stage.

    Mirrors the Prometheus histogram model: observations are counted into
    the first bucket whose upper bound is >= the value (plus an implicit
    ``+Inf`` overflow bucket), and the running ``sum``/``count`` make mean
    latency and rates derivable.  Not thread-safe by itself — the owning
    :class:`EngineMetrics` serializes access under its lock.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # [..., +Inf overflow]
        self.sum = 0.0
        self.count = 0

    def observe(self, seconds: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, seconds)] += 1
        self.sum += seconds
        self.count += 1

    def snapshot(self) -> dict:
        """Cumulative-bucket form: ``{"buckets": [[le, n], ...], "sum", "count"}``.

        ``buckets`` are cumulative (Prometheus ``le`` semantics) and end with
        the ``"+Inf"`` bucket, whose count always equals ``count``.
        """
        cumulative = []
        running = 0
        for bound, bucket_count in zip(self.buckets, self.counts):
            running += bucket_count
            cumulative.append([bound, running])
        cumulative.append(["+Inf", self.count])
        return {"buckets": cumulative, "sum": self.sum, "count": self.count}


@dataclass
class EngineMetrics:
    """Aggregate counters plus a bounded window of recent request traces."""

    requests: int = 0
    compiled: int = 0
    served_from_cache: int = 0
    deduplicated: int = 0
    rejected: int = 0
    errors: int = 0
    batches: int = 0
    total_seconds: float = 0.0
    # Scheduling solves, one per ``ilp`` span seen by observe_spans.
    ilp_solves: int = 0
    recent: deque = field(default_factory=lambda: deque(maxlen=256))
    stages: dict = field(
        default_factory=lambda: {name: StageHistogram() for name in DEFAULT_STAGES}
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, trace: RequestTrace) -> None:
        with self._lock:
            self.requests += 1
            self.total_seconds += trace.seconds
            if trace.source == "rejected":
                # A shed job both errors (it was not served) and counts as
                # rejected; latency aggregates below exclude it either way.
                self.rejected += 1
                self.errors += 1
            elif not trace.ok:
                self.errors += 1
            elif trace.source in ("memory", "disk"):
                self.served_from_cache += 1
            elif trace.source == "deduplicated":
                self.deduplicated += 1
            else:
                self.compiled += 1
            self.recent.append(trace)

    def record_batch(self) -> None:
        with self._lock:
            self.batches += 1

    def observe_spans(self, spans: tuple[Span, ...] | list[Span]) -> None:
        """Aggregate a result's span tree into the per-stage histograms.

        Every span in the forest — children included — is counted under its
        own name, so nested stages (``ilp`` inside ``solve``) each get their
        own histogram.  Unknown stage names create histograms on demand.
        ``ilp`` spans additionally count as solves.
        """
        if not spans:
            return
        flat = flatten_spans(spans)
        with self._lock:
            for span in flat:
                histogram = self.stages.get(span.name)
                if histogram is None:
                    histogram = self.stages[span.name] = StageHistogram()
                histogram.observe(span.seconds)
                if span.name == "ilp":
                    self.ilp_solves += 1

    def stage_histograms(self) -> dict[str, dict]:
        """Snapshot of every stage histogram (cumulative-bucket form)."""
        with self._lock:
            return {name: hist.snapshot() for name, hist in self.stages.items()}

    @property
    def mean_seconds(self) -> float:
        # Rejected jobs never ran and carry zero latency; including them
        # would deflate the mean exactly when the service is saturated.
        served = self.requests - self.rejected
        return self.total_seconds / served if served else 0.0

    def latency_percentile(self, fraction: float, source_class: str | None = None) -> float:
        """Latency percentile (0..1) over the recent-trace window.

        ``source_class`` restricts the window to one class
        (:data:`SOURCE_CLASSES`); the default covers every class except
        ``rejected`` — shed jobs never ran, so their zero latencies are
        excluded from every aggregate.
        """
        with self._lock:
            latencies = self._latencies(source_class)
        return self._percentile_of(latencies, fraction)

    def _latencies(self, source_class: str | None = None) -> list[float]:
        """Sorted latencies of the window, filtered by class (lock held)."""
        return sorted(
            trace.seconds
            for trace in self.recent
            if trace.source_class != "rejected"
            and (source_class is None or trace.source_class == source_class)
        )

    @staticmethod
    def _percentile_of(latencies: list[float], fraction: float) -> float:
        if not latencies:
            return 0.0
        index = min(len(latencies) - 1, int(round(fraction * (len(latencies) - 1))))
        return latencies[index]

    def summary(self) -> dict[str, float | int]:
        with self._lock:
            latencies = self._latencies()
            compiled = self._latencies("compiled")
            cached = self._latencies("served_from_cache")
            stage_seconds = {
                name: {
                    "count": hist.count,
                    "sum_seconds": round(hist.sum, 6),
                    "mean_seconds": round(hist.sum / hist.count, 6) if hist.count else 0.0,
                }
                for name, hist in self.stages.items()
            }
            return {
                "requests": self.requests,
                "compiled": self.compiled,
                "served_from_cache": self.served_from_cache,
                "deduplicated": self.deduplicated,
                "rejected": self.rejected,
                "errors": self.errors,
                "batches": self.batches,
                "total_seconds": round(self.total_seconds, 6),
                "mean_seconds": round(self.mean_seconds, 6),
                "p50_seconds": round(self._percentile_of(latencies, 0.50), 6),
                "p95_seconds": round(self._percentile_of(latencies, 0.95), 6),
                "p50_seconds_compiled": round(self._percentile_of(compiled, 0.50), 6),
                "p95_seconds_compiled": round(self._percentile_of(compiled, 0.95), 6),
                "p50_seconds_served_from_cache": round(self._percentile_of(cached, 0.50), 6),
                "p95_seconds_served_from_cache": round(self._percentile_of(cached, 0.95), 6),
                "ilp_solves": self.ilp_solves,
                "stage_seconds": stage_seconds,
            }
