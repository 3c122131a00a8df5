"""Serving-front smoke benchmark: the HTTP layer must not change answers.

The acceptance bar for the network surface: an HTTP round-trip of a catalog
pipeline returns the *same* fingerprint and area/power summary as an
in-process ``engine.submit`` of the equivalent target, a repeated request is
answered from a cache tier, every request rides the client's one kept-alive
connection, and the warm HTTP path (JSON codec + TCP + cache lookup) stays
far cheaper than a cold ILP solve.  harris-m itself now solves
on the flow kernel in a few milliseconds, so the cold-solve yardstick is its
mirror-tie variant, which has no least optimum and still reaches HiGHS.
"""

from __future__ import annotations

import json
import time

from repro.algorithms import build_algorithm
from repro.api import CompileTarget
from repro.estimate.report import accelerator_report
from repro.service import CompileEngine, ServiceClient, start_server

from tests.conftest import harris_tie_target, record_connections

W, H = 480, 320


def test_http_round_trip_matches_in_process_compile(benchmark):
    targets = {
        "harris-m:gauss": harris_tie_target(W, H),
        "harris-m": CompileTarget(build_algorithm("harris-m"), image_width=W, image_height=H),
    }

    def serve_and_compare():
        engine = CompileEngine(workers=2)
        server = start_server(engine)
        accepted = record_connections(server)
        try:
            rounds = {}
            with ServiceClient(port=server.port) as client:
                for label, target in targets.items():
                    start = time.perf_counter()
                    cold = client.compile(target)
                    cold_s = time.perf_counter() - start
                    warm_s = min(
                        _timed(lambda: client.compile(target)) for _ in range(5)
                    )
                    warm = client.compile(target)
                    in_process = engine.submit(target)
                    rounds[label] = cold, warm, in_process, cold_s, warm_s, len(accepted)
            return rounds
        finally:
            server.stop()
            engine.shutdown()

    rounds = benchmark.pedantic(serve_and_compare, rounds=1, iterations=1)
    for label, (cold, warm, in_process, cold_s, warm_s, connections) in rounds.items():
        print(
            f"\nHTTP front, {label}: cold {cold_s * 1000:.1f} ms, warm "
            f"{warm_s * 1000:.2f} ms ({cold_s / warm_s:.0f}x), sources "
            f"{cold['source']} -> {warm['source']}"
        )
        # Same design point, bit-identical summary, straight through the codec.
        assert cold["ok"] and warm["ok"]
        assert cold["fingerprint"] == in_process.fingerprint
        row = json.loads(json.dumps(accelerator_report(in_process.accelerator).row()))
        assert cold["report"] == row
        assert warm["report"] == row
        # The repeat was served from a cache tier, not a second solve.
        assert cold["source"] == "solver"
        assert warm["source"] in ("memory", "disk")
        # The cold, 5 warm and repeat requests reused one kept-alive connection.
        assert connections == 1, f"{connections} connections after {label}"
    # Warm HTTP = codec + loopback TCP + hash lookup: must beat a cold ILP
    # solve comfortably (generous 3x bound to absorb noisy shared runners).
    cold, _, in_process, cold_s, warm_s, _ = rounds["harris-m:gauss"]
    assert in_process.accelerator.schedule.solver_stats["backend"] == "highs"
    assert warm_s * 3 <= cold_s, (
        f"warm HTTP round-trip {warm_s * 1000:.1f} ms vs cold {cold_s * 1000:.1f} ms"
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
