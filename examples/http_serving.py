#!/usr/bin/env python3
"""Serve compile requests over HTTP: the engine as an actual network service.

Boots the stdlib HTTP front (`repro.service.http`) on an ephemeral port,
then drives it with the `ServiceClient` helper the way a remote designer
would: compile a catalog pipeline, compile it again (answered from the
content-addressed cache without touching a solver), submit a batch with one
infeasible design point (a per-item error, not a failed batch), and read the
operational endpoints.

The same checks double as the CI smoke for the serving front, so every
assertion here is a service-level guarantee.  For a standalone server, run
``python -m repro.service.http --port 8080 --cache-dir .imagen-cache``.

Run:  python examples/http_serving.py
"""

from __future__ import annotations

import tempfile

from repro import CompileEngine, CompileTarget
from repro.algorithms import build_algorithm
from repro.service import ServiceClient, start_server


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="imagen-http-") as cache_dir:
        engine = CompileEngine(workers=2, cache_dir=cache_dir)
        server = start_server(engine)  # port=0: ephemeral
        # The client keeps its connection alive between requests; close()
        # releases it.
        client = ServiceClient(port=server.port)
        try:
            print(f"service on http://127.0.0.1:{server.port}  {client.health()}")

            target = CompileTarget(
                build_algorithm("unsharp-m"), image_width=480, image_height=320
            )
            first = client.compile(target)
            second = client.compile(target)
            for tag, result in (("cold", first), ("warm", second)):
                print(
                    f"  {tag}: source={result['source']:<7} "
                    f"{result['seconds'] * 1000:7.1f} ms  "
                    f"area={result['report']['total_area_mm2']} mm2  "
                    f"power={result['report']['total_power_mw']} mW"
                )

            # The service answers with the exact design the library computes
            # in-process: same fingerprint, same area/power summary.
            in_process = engine.submit(target)
            assert first["fingerprint"] == in_process.fingerprint
            assert first["ok"] and second["ok"]
            # ...and the repeat never re-ran a generator.
            assert first["source"] == "solver"
            assert second["source"] in ("memory", "disk"), second["source"]

            # One bad design point degrades to an error entry in its slot.
            batch = client.compile_batch(
                [target, target.with_resolution(1, 1), target.with_generator("soda")]
            )
            assert [r["ok"] for r in batch["results"]] == [True, False, True]
            print(f"  batch: {[r.get('source', 'error') for r in batch['results']]}")

            metrics = client.metrics()
            stats = client.cache_stats()
            assert metrics["served_from_cache"] >= 1
            assert stats["hits"] >= 1 and stats["disk_entries"] >= 1
            print(f"  metrics: {metrics}")
            print(f"  cache:   {stats}")

            # The observability surface: per-request span trees and the
            # Prometheus rendering of the same counters printed above.
            traced = client.compile(target, trace=True)
            span_names = [span["name"] for span in traced["spans"]]
            assert "cache" in span_names, span_names
            exposition = client.metrics_prometheus()
            assert "# TYPE repro_stage_seconds histogram" in exposition
            assert 'repro_stage_seconds_count{stage="solve"}' in exposition
            print(f"  trace:   {span_names}")
            print(f"  prometheus: {len(exposition.splitlines())} lines")
            print("http smoke ok")
        finally:
            client.close()
            server.stop()
            engine.shutdown()


if __name__ == "__main__":
    main()
