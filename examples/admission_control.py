#!/usr/bin/env python3
"""Admission control end to end: auth, rate limits, queue-full.

Boots the HTTP front with every admission knob turned on — bearer-token
authentication, a per-identity token bucket, and a bounded engine queue —
then drives each rejection path the way a misbehaving client would hit it:

* no/garbage token -> 401 (``ServiceError.status == 401``);
* a burst past the rate limit -> 429 with ``reason: "rate-limited"`` and a
  precise ``Retry-After``;
* a saturated engine (tiny ``max_pending``, solver gated on an event so the
  demo is deterministic) -> 429 with ``reason: "queue-full"`` while the
  admitted work still completes.

The same checks double as the CI smoke for the admission layer, so every
assertion here is a service-level guarantee.  For a standalone hardened
server, run::

    python -m repro.service.http --port 8080 --auth-token-file tokens.txt \
        --rate-limit 10:20 --max-pending 64

Run:  python examples/admission_control.py
"""

from __future__ import annotations

import threading
import time

import repro.service.engine as engine_module
from repro import CompileEngine, CompileTarget
from repro.algorithms import build_algorithm
from repro.service import (
    RateLimiter,
    ServiceClient,
    ServiceError,
    TokenAuthenticator,
    TokenRecord,
    start_server,
)


def targets(count: int) -> list[CompileTarget]:
    base = build_algorithm("unsharp-m")
    return [
        CompileTarget(base, image_width=480 + 2 * i, image_height=320)
        for i in range(count)
    ]


def expect_rejection(fn, status: int, reason: str | None = None) -> ServiceError:
    try:
        fn()
    except ServiceError as exc:
        assert exc.status == status, (exc.status, status)
        if reason is not None:
            assert exc.body.get("reason") == reason, exc.body
        return exc
    raise AssertionError(f"expected HTTP {status}, got a 2xx")


def main() -> None:
    # --- authentication + rate limiting -----------------------------------
    authenticator = TokenAuthenticator(
        [
            TokenRecord("alice", "alice-secret"),
            TokenRecord("bob", "bob-secret"),
            TokenRecord("carol", "carol-secret"),
        ]
    )
    limiter = RateLimiter(rate=2.0, burst=2.0)  # 2 rps sustained, bursts of 2
    engine = CompileEngine(workers=1, executor="thread", max_pending=1)
    server = start_server(engine, authenticator=authenticator, rate_limiter=limiter)
    try:
        anonymous = ServiceClient(port=server.port)
        alice = ServiceClient(port=server.port, token="alice-secret")
        bob = ServiceClient(port=server.port, token="bob-secret")
        # carol's untouched rate bucket keeps the queue-full demo below from
        # tripping the *rate* limiter instead of the queue bound.
        carol = ServiceClient(port=server.port, token="carol-secret")
        target = targets(1)[0]

        print(f"service on http://127.0.0.1:{server.port}  {anonymous.health()}")
        expect_rejection(lambda: anonymous.compile(target), 401)
        expect_rejection(
            lambda: ServiceClient(port=server.port, token="wrong").compile(target), 401
        )
        print("  401: anonymous and garbage tokens rejected (healthz stays open)")

        # bob pays the process's cold solve first (unsharp-m solves on the
        # flow kernel and imports no SciPy), so alice's burst is three
        # back-to-back warm hits: a cold solve inside it would refill her
        # bucket by a token and admit her third request.
        assert bob.compile(target)["ok"]
        assert alice.compile(target)["ok"]
        assert alice.compile(target)["source"] in ("memory", "disk")
        throttled = expect_rejection(
            lambda: alice.compile(target), 429, reason="rate-limited"
        )
        print(
            f"  429: alice throttled after her burst of 2 "
            f"(Retry-After {throttled.retry_after:.0f}s); bob is unaffected:",
            bob.compile(target)["source"],
        )

        # --- queue-full: saturate the engine deterministically -------------
        gate = threading.Event()
        real = engine_module.compile_pipeline

        def gated(job_target, cache=None):  # hold solves until the demo says go
            gate.wait(30)
            return real(job_target, cache=cache)

        engine_module.compile_pipeline = gated
        try:
            cold = targets(4)[1:]  # fresh fingerprints: real solver work
            inflight = []
            workers = [
                threading.Thread(
                    target=lambda t=t: inflight.append(carol.compile(t))
                )
                for t in cold[:2]  # 1 dispatched + 1 queued = saturation
            ]
            for worker in workers:
                worker.start()
            while engine.admission_stats()["queue_depth"] < 1:
                time.sleep(0.01)
            time.sleep(1.0)  # refill carol's bucket so only the *queue* rejects
            shed = expect_rejection(
                lambda: carol.compile(cold[2]), 429, reason="queue-full"
            )
            print(
                f"  429: queue full at max_pending=1 "
                f"(Retry-After {shed.retry_after:.0f}s) while in-flight work runs"
            )
            gate.set()
            for worker in workers:
                worker.join()
            assert all(result["ok"] for result in inflight)
            metrics = bob.metrics()
            assert metrics["rejected_total"] == 1 and metrics["queue_depth"] == 0
            print(
                f"  metrics: rejected_total={metrics['rejected_total']} "
                f"throttled_total={metrics['throttled_total']} "
                f"queue_depth={metrics['queue_depth']} auth={metrics['auth']}"
            )
        finally:
            gate.set()
            engine_module.compile_pipeline = real
    finally:
        server.stop()
        engine.shutdown()
    print("admission control smoke ok")


if __name__ == "__main__":
    main()
