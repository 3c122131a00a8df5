"""Tracing overhead guard: instrumentation must be free when disabled.

The observability tentpole threads `trace_span` through the compile hot
path (cache fetch, scheduler, ILP, allocator, RTL).  The contract is that a
disabled tracer costs one attribute read per span site — so the warm-cache
hit path (the latency-critical serving case: a hash lookup, microseconds)
must be no slower with the instrumentation compiled in but switched off
than with full span collection on.  A regression here means someone made
the disabled path allocate.
"""

from __future__ import annotations

import statistics
import time

from repro.algorithms import build_algorithm
from repro.api import CompileTarget
from repro.service import CompileEngine
from repro.trace import trace_span

W, H = 480, 320
WARM_CALLS = 200


def _warm_hit_seconds(tracing: bool) -> list[float]:
    """Per-call warm cache-hit latencies on a dedicated engine."""
    engine = CompileEngine(tracing=tracing)
    target = CompileTarget(build_algorithm("canny-m"), image_width=W, image_height=H)
    engine.compile(target)  # cold solve, populates the cache
    samples = []
    for _ in range(WARM_CALLS):
        start = time.perf_counter()
        engine.compile(target)
        samples.append(time.perf_counter() - start)
    engine.shutdown()
    return samples


def test_disabled_tracing_adds_no_warm_hit_latency(benchmark):
    def measure():
        # Interleave the two configurations so ambient machine noise (GC,
        # scheduler preemption) hits both distributions equally.
        disabled = _warm_hit_seconds(tracing=False)
        enabled = _warm_hit_seconds(tracing=True)
        disabled += _warm_hit_seconds(tracing=False)
        enabled += _warm_hit_seconds(tracing=True)
        return statistics.median(disabled), statistics.median(enabled)

    disabled_median, enabled_median = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(
        f"\nWarm cache hit: tracing off {disabled_median * 1e6:.1f} us, "
        f"on {enabled_median * 1e6:.1f} us"
    )
    # The disabled path must not be measurably slower than the enabled one
    # (generous factor + absolute slack: CI machines are noisy and both
    # medians are tens of microseconds).
    assert disabled_median <= enabled_median * 1.5 + 50e-6, (
        f"tracing-disabled warm hit ({disabled_median * 1e6:.1f} us) is slower than "
        f"tracing-enabled ({enabled_median * 1e6:.1f} us) — the no-op span got expensive"
    )


def test_disabled_span_site_is_nanoseconds():
    """Microbenchmark of one disabled `trace_span` site (no collector active)."""
    iterations = 100_000
    start = time.perf_counter()
    for _ in range(iterations):
        with trace_span("solve"):
            pass
    per_call = (time.perf_counter() - start) / iterations
    print(f"\nDisabled span site: {per_call * 1e9:.0f} ns/call")
    # A context-manager round-trip through the shared no-op singleton; even
    # slow CI boxes do this in well under 5 us.
    assert per_call < 5e-6
