#!/usr/bin/env python3
"""RTL-level and performance verdicts over HTTP: verify the Verilog itself.

Boots the HTTP front on an ephemeral port and drives the two v2 check kinds
of `POST /v1/verify`: `rtl` streams seeded golden frames through a
pure-Python simulation of the *generated Verilog* and demands bit-exact
agreement with the functional replay; `perf` measures achieved cycles/frame
from the elaborated design and compares it against the schedule's ILP
bound. Both flow through the same verdict cache, dedup and tracing tiers as
every other check — the warm calls below are cache lookups.

The same checks double as the CI smoke for the RTL tier, so every assertion
here is a service-level guarantee.

Run:  python examples/verify_rtl.py
"""

from __future__ import annotations

import tempfile

from repro import CompileEngine, CompileTarget
from repro.algorithms import build_algorithm
from repro.rtl.sim import external_simulator
from repro.service import ServiceClient, start_server


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="imagen-rtl-") as cache_dir:
        engine = CompileEngine(workers=2, cache_dir=cache_dir)
        server = start_server(engine)  # port=0: ephemeral
        client = ServiceClient(port=server.port)
        try:
            print(f"service on http://127.0.0.1:{server.port}  {client.health()}")
            tool = external_simulator()
            print(f"external HDL tool: {tool or 'none (pure-Python path only)'}")

            target = CompileTarget(
                build_algorithm("unsharp-m"), image_width=128, image_height=96
            )

            # Cold rtl verify: compile, generate Verilog, elaborate it back
            # from the source text, stream golden frames through it, and
            # compare bit-for-bit with the vectorized functional replay.
            cold = client.verify(target, check="rtl", trace=True)
            warm = client.verify(target, check="rtl")
            for tag, verdict in (("cold", cold), ("warm", warm)):
                print(
                    f"  rtl {tag}: passed={verdict['passed']} "
                    f"source={verdict['source']:<8} "
                    f"{verdict['seconds'] * 1000:7.1f} ms  "
                    f"digest={verdict['rtl']['rtl_digest'][:12]}…"
                )
            assert cold["ok"] and cold["passed"]
            assert cold["rtl"]["rtl_digest"] == cold["rtl"]["digest"]
            assert cold["source"] == "verified"
            assert warm["source"] in ("memory", "disk"), warm["source"]
            spans = [child["name"] for child in cold["spans"][0]["children"]]
            assert "verify_rtl" in spans, spans
            print(f"  traced spans: verify > {', '.join(spans)}")

            # perf: achieved cycles/frame from the parsed design vs the
            # schedule's end-to-end latency bound.
            perf = client.verify(target, check="perf")
            report = perf["perf"]
            assert perf["passed"]
            assert report["cycles_per_frame"] <= report["bound_cycles_per_frame"]
            print(
                f"  perf: {report['cycles_per_frame']} cycles/frame "
                f"(bound {report['bound_cycles_per_frame']}, "
                f"II {report['initiation_interval']}, "
                f"startup {report['startup_cycles']})"
            )

            # Baseline generators emit different structures (FIFO chains,
            # relays) — their Verilog must still compute identical pixels.
            for generator in ("darkroom", "soda", "fixynn"):
                verdict = client.verify(target.with_generator(generator), check="rtl")
                assert verdict["passed"], (generator, verdict)
                assert verdict["rtl"]["rtl_digest"] == cold["rtl"]["rtl_digest"]
                print(f"  {generator:<9} rtl digest matches imagen's")

            metrics = client.metrics()
            print(
                f"  counters: rtl_simulations={metrics['verify_rtl_simulations']} "
                f"perf_measurements={metrics['verify_perf_measurements']} "
                f"memory_hits={metrics['verify_served_from_memory']}"
            )
            assert metrics["verify_rtl_simulations"] >= 4
            assert metrics["verify_perf_measurements"] >= 1
        finally:
            client.close()
            server.stop()
            engine.shutdown()
    print("OK")


if __name__ == "__main__":
    main()
