#!/usr/bin/env python3
"""Verify compiled designs over HTTP: correctness as a cached service query.

Boots the HTTP front on an ephemeral port and drives `POST /v1/verify` the
way a design-space sweep would: verify a catalog pipeline (golden replay +
reserved-table cycle legality), verify it again (answered from the verdict
cache), check that a baseline generator's rewrites compute bit-identical
pixels, pin an expected digest, and watch a strict-mode failure come back as
a typed 422 instead of a 500.

The same checks double as the CI smoke for the verification subsystem, so
every assertion here is a service-level guarantee.

Run:  python examples/verify_service.py
"""

from __future__ import annotations

import tempfile

from repro import CompileEngine, CompileTarget
from repro.algorithms import build_algorithm
from repro.service import ServiceClient, ServiceError, start_server


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="imagen-verify-") as cache_dir:
        engine = CompileEngine(workers=2, cache_dir=cache_dir)
        server = start_server(engine)  # port=0: ephemeral
        client = ServiceClient(port=server.port)
        try:
            print(f"service on http://127.0.0.1:{server.port}  {client.health()}")

            target = CompileTarget(
                build_algorithm("unsharp-m"), image_width=480, image_height=320
            )

            # Cold verify: compiles (or reuses the compile cache), replays
            # deterministic frames through reference and compiled DAGs, and
            # checks R1-R3 legality with the reserved-table analysis.
            cold = client.verify(target)
            warm = client.verify(target)
            for tag, verdict in (("cold", cold), ("warm", warm)):
                print(
                    f"  {tag}: passed={verdict['passed']} "
                    f"source={verdict['source']:<8} "
                    f"{verdict['seconds'] * 1000:7.1f} ms  "
                    f"golden={verdict['golden']['max_abs_error']}  "
                    f"cycle={verdict['cycle']['method']}"
                )
            assert cold["ok"] and cold["passed"]
            assert cold["source"] == "verified"
            assert warm["source"] in ("memory", "disk"), warm["source"]
            assert cold["cycle"]["method"] == "reserved-table"

            # A baseline generator rewrites the pipeline (relays, FIFO
            # splitting) — the golden digest proves the pixels don't change.
            soda = client.verify(target.with_generator("soda"), check="golden")
            assert soda["passed"]
            assert soda["golden"]["digest"] == cold["golden"]["digest"]
            print(f"  soda rewrite: digest match ({soda['golden']['digest'][:12]}…)")

            # Pinning the digest turns the verify into a regression check.
            pinned = client.verify(
                target, check="golden", expected_digest=cold["golden"]["digest"]
            )
            assert pinned["passed"]

            # Strict mode + a wrong pin: a typed 422, never a 500.
            try:
                client.verify(
                    target, check="golden", expected_digest="0" * 64, strict=True
                )
                raise AssertionError("strict verify with a bad pin must fail")
            except ServiceError as exc:
                assert exc.status == 422 and exc.body["reason"] == "verify-failed"
                print(f"  strict pin mismatch: HTTP 422 {exc.body['reason']!r}")

            # The observability surface: verify spans and verify_* counters.
            traced = client.verify(target, check="cycle", trace=True)
            assert traced["spans"][0]["name"] == "verify"
            metrics = client.metrics()
            assert metrics["verify_requests"] >= 5
            assert metrics["verify_served_from_memory"] >= 1
            exposition = client.metrics_prometheus()
            assert "repro_verify_requests_total" in exposition
            assert 'repro_stage_seconds_count{stage="verify"}' in exposition
            verify_counters = {
                key: value for key, value in metrics.items() if key.startswith("verify_")
            }
            print(f"  metrics: {verify_counters}")
            print("OK: verification service round trip")
        finally:
            client.close()
            server.stop()
            engine.shutdown()


if __name__ == "__main__":
    main()
