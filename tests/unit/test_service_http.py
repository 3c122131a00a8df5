"""Unit tests for the stdlib HTTP serving front and ServiceClient."""

import json
import http.client
import sys
import threading
import time

import pytest

import repro.service.engine as engine_module
import repro.service.http as http_module
from repro.algorithms import build_algorithm
from repro.api import CompileTarget
from repro.estimate.report import accelerator_report
from repro.service import (
    CompileEngine,
    RateLimiter,
    ServiceClient,
    ServiceError,
    TokenAuthenticator,
    start_server,
    target_to_wire,
)
from repro.service.admission import TokenRecord

from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain, record_connections

W, H = TEST_WIDTH, TEST_HEIGHT


@pytest.fixture
def service(tmp_path):
    """A live server on an ephemeral port + its engine + a client."""
    engine = CompileEngine(workers=2, cache_dir=tmp_path / "cache")
    server = start_server(engine)
    with ServiceClient(port=server.port) as client:
        yield client, engine, server
    server.stop()
    engine.shutdown()


@pytest.fixture
def opened(monkeypatch):
    """Every ``HTTPConnection`` a ``ServiceClient`` opens, in order."""
    connections = []

    class RecordedConnection(http.client.HTTPConnection):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            connections.append(self)

    monkeypatch.setattr(http_module, "HTTPConnection", RecordedConnection)
    return connections


def _handler_threads() -> set[threading.Thread]:
    return {
        thread for thread in threading.enumerate()
        if "process_request_thread" in thread.name
    }


def _stop_and_join(server, handlers: set[threading.Thread]) -> None:
    """Stop the server; each of its connection handlers must end within 2 s."""
    server.stop()
    deadline = time.monotonic() + 2
    for thread in handlers:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    assert not [thread for thread in handlers if thread.is_alive()]


def _raw_request(port, method, path, body=None, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


class TestCompileEndpoint:
    def test_round_trip_matches_in_process_submit(self, service):
        """Acceptance: HTTP compile == in-process engine.submit of the target."""
        client, engine, _ = service
        target = CompileTarget(
            build_algorithm("unsharp-m"), image_width=W, image_height=H
        )
        remote = client.compile(target)
        in_process = engine.submit(target)
        assert remote["ok"] is True
        assert remote["fingerprint"] == in_process.fingerprint
        row = accelerator_report(in_process.accelerator).row()
        assert remote["report"]["total_area_mm2"] == row["total_area_mm2"]
        assert remote["report"]["total_power_mw"] == row["total_power_mw"]
        assert remote["report"]["sram_kb"] == row["sram_kb"]

    def test_repeat_request_is_a_cache_hit(self, service):
        """Acceptance: the second identical request reports a cache-tier source."""
        client, _, _ = service
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        first = client.compile(target)
        second = client.compile(target)
        assert first["source"] == "solver"
        assert second["source"] in ("memory", "disk")
        assert second["fingerprint"] == first["fingerprint"]

    def test_fresh_engine_serves_from_shared_disk_cache(self, service, tmp_path):
        """A second service process on the same cache volume gets disk hits."""
        client, _, _ = service
        target = CompileTarget(build_chain(4), image_width=W, image_height=H)
        client.compile(target)
        second_engine = CompileEngine(workers=1, cache_dir=tmp_path / "cache")
        second_server = start_server(second_engine)
        try:
            with ServiceClient(port=second_server.port) as second_client:
                assert second_client.compile(target)["source"] == "disk"
        finally:
            second_server.stop()
            second_engine.shutdown()

    def test_compile_failure_is_ok_false_not_500(self, service):
        client, _, _ = service
        result = client.compile(
            CompileTarget(build_chain(3), image_width=1, image_height=H)
        )
        assert result["ok"] is False
        assert "SchedulingError" in result["error"]
        assert "report" not in result

    def test_wrapped_target_body_accepted(self, service):
        client, _, server = service
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        status, body = _raw_request(
            server.port,
            "POST",
            "/v1/compile",
            body=json.dumps({"target": target_to_wire(target)}),
            headers={"Content-Type": "application/json"},
        )
        assert status == 200 and body["ok"] is True


class TestBatchEndpoint:
    def test_ordered_batch_with_per_item_errors(self, service):
        client, _, _ = service
        targets = [
            CompileTarget(build_chain(3), image_width=W, image_height=H, label="a"),
            CompileTarget(build_chain(3), image_width=1, image_height=H, label="bad"),
            CompileTarget(build_chain(3), image_width=W, image_height=H, label="dup"),
        ]
        body = client.compile_batch(targets)
        assert [r["ok"] for r in body["results"]] == [True, False, True]
        assert [r.get("label") for r in body["results"]] == ["a", "bad", "dup"]
        assert body["results"][2]["source"] in ("deduplicated", "memory", "disk")
        assert body["seconds"] >= 0
        assert body["cache_stats"]["misses"] >= 1

    def test_undecodable_item_degrades_to_error_slot(self, service):
        client, _, server = service
        good = target_to_wire(
            CompileTarget(build_chain(3), image_width=W, image_height=H)
        )
        bad = dict(good)
        bad["resolution"] = "nonsense"
        status, body = _raw_request(
            server.port,
            "POST",
            "/v1/batch",
            body=json.dumps({"targets": [good, bad, good]}),
            headers={"Content-Type": "application/json"},
        )
        assert status == 200  # per-item errors are JSON, not 500s
        assert [r["ok"] for r in body["results"]] == [True, False, True]
        assert "resolution" in body["results"][1]["error"]
        assert body["results"][0]["fingerprint"] == body["results"][2]["fingerprint"]

    def test_malformed_batch_body_is_400(self, service):
        client, _, server = service
        status, body = _raw_request(
            server.port,
            "POST",
            "/v1/batch",
            body=json.dumps({"jobs": []}),
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        assert "targets" in body["error"]


class TestOperationalEndpoints:
    def test_healthz(self, service):
        client, _, _ = service
        assert client.health() == {"status": "ok"}

    def test_metrics_reflect_served_requests(self, service):
        client, _, _ = service
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        client.compile(target)
        client.compile(target)
        metrics = client.metrics()
        assert metrics["requests"] == 2
        assert metrics["compiled"] == 1
        assert metrics["served_from_cache"] == 1

    def test_cache_stats_include_occupancy_and_disk_tier(self, service):
        client, _, _ = service
        client.compile(CompileTarget(build_chain(3), image_width=W, image_height=H))
        stats = client.cache_stats()
        assert stats["entries"] == 1
        assert stats["misses"] == 1
        assert stats["disk_entries"] == 1
        assert stats["disk_stores"] == 1

    def test_unknown_path_is_404(self, service):
        client, _, server = service
        for method, path in (("GET", "/v1/nope"), ("POST", "/v2/compile")):
            status, body = _raw_request(
                server.port, method, path, body="{}" if method == "POST" else None
            )
            assert status == 404
            assert path in body["error"]
        with pytest.raises(ServiceError, match="404"):
            client._request("GET", "/v1/nope")

    def test_invalid_json_body_is_400(self, service):
        client, _, server = service
        status, body = _raw_request(
            server.port,
            "POST",
            "/v1/compile",
            body="{not json",
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        assert "JSON" in body["error"]

    def test_keep_alive_connection_serves_multiple_requests(self, service):
        _, _, server = service
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            for _ in range(3):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()  # drain so the connection can be reused
        finally:
            connection.close()

    def test_kept_alive_warm_requests_do_not_wait_for_delayed_acks(self, service):
        """With Nagle on, the body segment that follows the headers waits
        on a kept-alive connection for the client's delayed ACK, about
        40 ms per response.  The bundled client keeps its connection."""
        client, _, _ = service
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        client.compile(target)  # the cold solve; every timed request is warm
        started = time.perf_counter()
        for _ in range(20):
            assert client.compile(target)["source"] == "memory"
        elapsed = time.perf_counter() - started
        assert elapsed < 20 * 0.020, f"20 kept-alive warm requests took {elapsed * 1000:.0f} ms"

    def test_error_responses_close_the_connection(self, service):
        """Error paths may not drain the request body; keeping the HTTP/1.1
        connection alive would desync it (body bytes parsed as the next
        request line), so 4xx responses must carry Connection: close."""
        _, _, server = service
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            connection.request(
                "POST",
                "/v1/nope",
                body=json.dumps({"payload": "never drained"}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_metrics_expose_admission_and_executor_schema(self, service):
        """Acceptance: /v1/metrics always carries rejected_total, queue_depth
        and the worker count, even with admission control off."""
        client, engine, _ = service
        metrics = client.metrics()
        assert metrics["rejected_total"] == 0
        assert metrics["queue_depth"] == 0
        assert metrics["throttled_total"] == 0
        assert metrics["executor"] == engine.executor_name
        assert metrics["workers"] == engine.workers
        assert metrics["auth"] == "anonymous"
        assert metrics["max_pending"] is None
        removed = {
            "max_workers",
            "min_workers",
            "busy_workers",
            "executor_queue_depth",
            "scale_ups",
            "scale_downs",
            "scaling_events",
        }
        assert not removed & set(metrics)
        text = client.metrics_prometheus()
        for series in (
            "repro_max_workers",
            "repro_min_workers",
            "repro_busy_workers",
            "repro_executor_queue_depth",
            "repro_scale_ups_total",
            "repro_scale_downs_total",
        ):
            assert series not in text

    def test_internal_errors_become_500_json(self, service, monkeypatch):
        """An unexpected exception in a route is a JSON 500, not a reset."""
        _, engine, server = service

        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(engine, "submit", boom)
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        status, body = _raw_request(
            server.port,
            "POST",
            "/v1/compile",
            body=json.dumps(target_to_wire(target)),
            headers={"Content-Type": "application/json"},
        )
        assert status == 500
        assert "RuntimeError" in body["error"]

    def test_undecodable_target_is_400(self, service):
        client, _, server = service
        status, body = _raw_request(
            server.port,
            "POST",
            "/v1/compile",
            body=json.dumps({"dag": {"stages": [], "edges": []}}),
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        assert "error" in body

    def test_floor_divide_target_is_400(self, service):
        _, _, server = service
        wire = target_to_wire(
            CompileTarget(build_chain(3), image_width=W, image_height=H)
        )
        stage = wire["dag"]["stages"][-1]
        stage["expression"] = {
            "kind": "binop",
            "op": "//",
            "left": stage["expression"],
            "right": {"kind": "const", "value": 2},
        }
        status, body = _raw_request(
            server.port,
            "POST",
            "/v1/compile",
            body=json.dumps(wire),
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        assert "//" in body["error"]


    @pytest.mark.parametrize(
        "field, value",
        [
            ("backend", "python"),
            ("disjunction_strategy", "enumerate"),
            ("max_subproblems", 8),
            ("ports", 2),
        ],
    )
    def test_retired_option_value_is_400(self, service, field, value):
        _, _, server = service
        wire = target_to_wire(
            CompileTarget(build_chain(3), image_width=W, image_height=H)
        )
        wire["options"][field] = value
        status, body = _raw_request(
            server.port,
            "POST",
            "/v1/compile",
            body=json.dumps(wire),
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        assert field in body["error"]


class TestAccessLog:
    """One spelling per log style: ``access_log=`` / ``--access-log``."""

    def _serve_one_health_check(self, **server_kwargs):
        engine = CompileEngine(workers=1)
        server = start_server(engine, **server_kwargs)
        try:
            with ServiceClient(port=server.port) as client:
                assert client.health() == {"status": "ok"}
        finally:
            server.stop()
            engine.shutdown()
        return server

    def test_library_server_logs_nothing_by_default(self, capfd):
        server = self._serve_one_health_check()
        assert server.access_log == "none"
        assert capfd.readouterr().err == ""

    def test_json_access_log_writes_one_record_per_request(self, capfd):
        self._serve_one_health_check(access_log="json")
        lines = capfd.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert (record["method"], record["path"], record["status"]) == (
            "GET", "/healthz", 200,
        )

    def test_unknown_mode_rejected(self):
        from repro.service.http import CompileServiceServer

        engine = CompileEngine(workers=1)
        with pytest.raises(ValueError, match="access_log"):
            CompileServiceServer(("127.0.0.1", 0), engine, access_log="verbose")
        engine.shutdown()

    def test_cli_takes_access_log_modes_only(self, capsys):
        from repro.service.http import ACCESS_LOG_MODES, build_parser

        parser = build_parser()
        assert parser.parse_args([]).access_log == "plain"
        for mode in ACCESS_LOG_MODES:
            assert parser.parse_args(["--access-log", mode]).access_log == mode
        with pytest.raises(SystemExit):
            parser.parse_args(["--access-log", "verbose"])
        assert "invalid choice" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Admission control over HTTP: auth, rate limits, queue-full semantics
# ---------------------------------------------------------------------------
class _Clock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def secured_service():
    """A server with token auth and a fake-clock rate limiter (2 rps, burst 2)."""
    clock = _Clock()
    authenticator = TokenAuthenticator(
        [
            TokenRecord("alice", "alice-secret"),
            TokenRecord("bob", "bob-secret"),
            TokenRecord("carol", "carol-secret", expires_epoch=500.0),
        ],
        clock=clock,
    )
    limiter = RateLimiter(rate=2.0, burst=2.0, clock=clock)
    engine = CompileEngine(workers=1, max_pending=2)
    server = start_server(engine, authenticator=authenticator, rate_limiter=limiter)
    yield server, engine, clock
    server.stop()
    engine.shutdown()


def _client(server, token):
    return ServiceClient(port=server.port, token=token)


class TestAuthOverHTTP:
    def test_valid_token_compiles(self, secured_service):
        server, engine, _ = secured_service
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        with _client(server, "alice-secret") as alice:
            assert alice.compile(target)["ok"] is True
        assert engine.metrics.summary()["requests"] == 1

    def test_missing_garbage_and_expired_tokens_are_401(self, secured_service):
        server, _, _ = secured_service
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        for token in (None, "garbage", "carol-secret"):
            with _client(server, token) as client, pytest.raises(ServiceError) as info:
                client.compile(target)
            assert info.value.status == 401
            assert "token" in info.value.body["error"]

    def test_401_carries_www_authenticate(self, secured_service):
        server, _, _ = secured_service
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            connection.request("GET", "/v1/metrics")
            response = connection.getresponse()
            assert response.status == 401
            assert "Bearer" in response.getheader("WWW-Authenticate", "")
        finally:
            connection.close()

    def test_healthz_stays_unauthenticated(self, secured_service):
        server, _, _ = secured_service
        with _client(server, None) as anonymous:
            assert anonymous.health() == {"status": "ok"}

    def test_metrics_require_auth_and_report_token_mode(self, secured_service):
        server, _, _ = secured_service
        with _client(server, "bob-secret") as bob:
            metrics = bob.metrics()
        assert metrics["auth"] == "token"
        assert metrics["rate_limit"]["burst"] == 2.0


class TestRateLimitOverHTTP:
    def test_burst_then_429_then_refill(self, secured_service):
        server, _, clock = secured_service
        accepted = record_connections(server)
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        with _client(server, "alice-secret") as client:
            client.compile(target)
            client.compile(target)  # burst of 2 exhausted
            with pytest.raises(ServiceError) as info:
                client.compile(target)
            error = info.value
            assert error.status == 429
            assert error.body["reason"] == "rate-limited"
            assert error.retry_after is not None and error.retry_after >= 1
            clock.advance(1.0)  # 2 rps -> 2 tokens back
            assert client.compile(target)["ok"] is True
            assert client.compile(target)["ok"] is True
        # The 429 closed the first connection; one new one serves the rest.
        assert len(accepted) == 2

    def test_429_is_never_charged_to_other_identity(self, secured_service):
        server, _, _ = secured_service
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        with _client(server, "alice-secret") as alice, _client(server, "bob-secret") as bob:
            alice.compile(target)
            alice.compile(target)
            with pytest.raises(ServiceError):
                alice.compile(target)
            # bob's bucket is untouched by alice's throttling.
            assert bob.compile(target)["ok"] is True

    def test_batch_charges_one_token_per_target(self, secured_service):
        server, _, _ = secured_service
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        with _client(server, "alice-secret") as client:
            # burst 2, batch of 3: admitted on the full bucket (overdraft) ...
            first = client.compile_batch([target, target, target])
            assert [r["ok"] for r in first["results"]] == [True, True, True]
            # ... and the overdraft throttles what follows.
            with pytest.raises(ServiceError) as info:
                client.compile(target)
        assert info.value.status == 429
        assert info.value.body["reason"] == "rate-limited"


class TestQueueFullOverHTTP:
    def test_saturated_engine_returns_429_while_inflight_completes(
        self, monkeypatch
    ):
        """Acceptance: a saturated engine (max_pending=2, slow solves) sheds
        excess submits with 429/queue-full + Retry-After; admitted work
        completes once the solver unblocks, and /v1/metrics shows the shed.

        No rate limiter here: this test saturates the *queue*, and a token
        bucket in front would throttle the flood before it ever got there.
        """
        authenticator = TokenAuthenticator(
            [TokenRecord("alice", "alice-secret"), TokenRecord("bob", "bob-secret")]
        )
        engine = CompileEngine(workers=1, max_pending=2)
        server = start_server(engine, authenticator=authenticator)
        gate = threading.Event()
        real = engine_module.compile_pipeline

        def gated(target, cache=None):
            if not gate.wait(timeout=30):
                raise TimeoutError("gate never opened")
            return real(target, cache=cache)

        monkeypatch.setattr(engine_module, "compile_pipeline", gated)
        targets = [
            CompileTarget(build_chain(3), image_width=W + 2 * i, image_height=H)
            for i in range(4)
        ]
        outcomes = []

        def post(token, target):
            try:
                with ServiceClient(port=server.port, token=token, timeout=60) as client:
                    outcomes.append(client.compile(target))
            except ServiceError as exc:
                outcomes.append(exc)

        threads = [
            threading.Thread(target=post, args=("alice-secret", target))
            for target in targets[:3]  # 1 in flight + 2 queued
        ]
        for thread in threads:
            thread.start()
        bob = _client(server, "bob-secret")
        try:
            # One running and two waiting: queue_depth alone also counts a
            # job the idle worker is about to take.
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                stats = engine.admission_stats()
                if (stats["inflight"], stats["queue_depth"]) == (1, 2):
                    break
                time.sleep(0.01)
            assert engine.admission_stats()["queue_depth"] == 2
            with pytest.raises(ServiceError) as info:
                bob.compile(targets[3])
            error = info.value
            assert error.status == 429
            assert error.body["reason"] == "queue-full"
            assert error.retry_after is not None and error.retry_after >= 1
            metrics = bob.metrics()
            assert metrics["rejected_total"] == 1
            assert metrics["queue_depth"] == 2
            gate.set()
            for thread in threads:
                thread.join(timeout=60)
            assert all(isinstance(o, dict) and o["ok"] for o in outcomes)
            assert bob.metrics()["queue_depth"] == 0
        finally:
            gate.set()
            bob.close()
            server.stop()
            engine.shutdown()


class TestServiceClientTypedErrors:
    def test_non_2xx_carries_status_and_body(self, service):
        client, _, _ = service
        with pytest.raises(ServiceError) as info:
            client._request("GET", "/v1/nope")
        error = info.value
        assert error.status == 404
        assert "Unknown path" in error.body["error"]
        assert error.retry_after is None

    def test_transport_failures_are_typed_too(self, service, opened):
        _, _, server = service
        port = server.port
        server.stop()  # connection refused from here on
        with ServiceClient(port=port, timeout=2) as client, pytest.raises(ServiceError) as info:
            client.health()
        assert info.value.status is None
        assert info.value.body == {}
        assert len(opened) == 1  # a refused new connection is not retried


class TestKeepAliveClient:
    """A client reuses its connections, and reconnects once when the
    server has closed an idle one."""

    @pytest.mark.parametrize("threads, requests", [(1, 20), (2, 20), (8, 25)])
    def test_threads_open_at_most_one_connection_each(self, service, opened, threads, requests):
        """One thread's requests share one connection.  Threads share the
        idle stack; with 8 threads on fewer cores and a short switch
        interval, a lost or doubled pop shows as a crossed response, a
        failed request or a socket left open by close()."""
        client, _, server = service
        accepted = record_connections(server)
        targets = [
            CompileTarget(build_chain(3), image_width=W + 2 * i, image_height=H)
            for i in range(threads)
        ]
        failures = []

        def send(target) -> None:
            try:
                for _ in range(requests):
                    assert client.compile(target)["fingerprint"] == target.fingerprint
            except Exception as exc:  # noqa: BLE001 - reported by the assert below
                failures.append(exc)

        workers = [threading.Thread(target=send, args=(target,)) for target in targets]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not [worker for worker in workers if worker.is_alive()]
        assert failures == []
        assert 1 <= len(accepted) <= threads
        assert len(opened) == len(accepted)
        client.close()
        assert all(connection.sock is None for connection in opened)

    def test_restarted_server_is_reached_after_one_reconnect(self, opened):
        engine = CompileEngine(workers=1)
        server = start_server(engine)
        port = server.port
        before = _handler_threads()
        try:
            with ServiceClient(port=port) as client:
                assert client.health() == {"status": "ok"}  # one idle connection
                _stop_and_join(server, _handler_threads() - before)
                server = start_server(engine, port=port)  # allow_reuse_address
                accepted = record_connections(server)
                for _ in range(3):
                    assert client.health() == {"status": "ok"}
            assert len(accepted) == 1
            assert len(opened) == 2
        finally:
            server.stop()
            engine.shutdown()

    def test_stopped_server_fails_after_one_reconnect(self, service, opened):
        """The idle connection's failure is retried once; the refused
        reconnect is the typed error."""
        client, _, server = service
        before = _handler_threads()
        assert client.health() == {"status": "ok"}
        _stop_and_join(server, _handler_threads() - before)
        with pytest.raises(ServiceError, match="ConnectionRefusedError") as info:
            client.health()
        assert info.value.status is None
        assert len(opened) == 2

    def test_404_is_followed_by_a_success_on_the_same_client(self, service):
        client, _, server = service
        accepted = record_connections(server)
        assert client.health() == {"status": "ok"}
        with pytest.raises(ServiceError) as info:
            client._request("GET", "/v1/nope")
        assert info.value.status == 404
        for _ in range(3):
            assert client.health() == {"status": "ok"}
        # The 404 closed the first connection; one new one serves the rest.
        assert len(accepted) == 2

    def test_close_and_with_leave_no_open_socket(self, service, opened):
        client, _, server = service
        with ServiceClient(port=server.port) as scoped:
            assert scoped.health() == {"status": "ok"}
        assert opened[0].sock is None
        assert client.health() == {"status": "ok"}
        client.close()
        assert opened[1].sock is None
        assert client.health() == {"status": "ok"}  # a closed client reconnects
        client.close()
        assert len(opened) == 3
        assert all(connection.sock is None for connection in opened)

    def test_stop_ends_the_handlers_of_idle_connections(self):
        engine = CompileEngine(workers=1)
        before = _handler_threads()
        server = start_server(engine)
        raw = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        client = ServiceClient(port=server.port)
        try:
            raw.request("GET", "/healthz")
            response = raw.getresponse()
            assert response.status == 200
            response.read()  # drained: the connection stays open and idle
            assert client.health() == {"status": "ok"}
            handlers = _handler_threads() - before
            assert len(handlers) == 2
            _stop_and_join(server, handlers)
        finally:
            raw.close()
            client.close()
            server.stop()
            engine.shutdown()
