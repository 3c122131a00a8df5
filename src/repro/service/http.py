"""Stdlib-only HTTP/JSON serving front over :class:`CompileEngine`.

Stability: public.

This is the network surface of the compilation service: a
:class:`http.server.ThreadingHTTPServer` whose handler threads submit
decoded :class:`repro.api.CompileTarget` requests to one shared engine, so
every HTTP client transparently gets the engine's content-addressed cache,
in-flight deduplication and metrics.  Several service processes may point
``--cache-dir`` at one shared volume: disk writes are atomic per writer and
fingerprint-addressed, so they cooperate instead of corrupting each other.

Endpoints
---------
* ``POST /v1/compile`` — body: one wire-format target
  (:func:`repro.service.wire.target_to_wire`).  Responds 200 with
  :func:`repro.service.wire.result_to_wire` output; compile *failures* are
  ``ok: false`` JSON (the request was served), while undecodable payloads are
  400s.
* ``POST /v1/batch`` — body: ``{"targets": [...]}``.  Responds 200 with
  ordered per-item results; an undecodable, failing or queue-shed item
  yields an error-carrying entry in its slot, never a 500 for the whole
  batch.
* ``POST /v1/verify`` — body: one wire-format verify request
  (:func:`repro.service.wire.verify_request_to_wire`): a target plus a check
  kind (``golden``/``cycle``/``both``/``rtl``/``perf``, see
  :data:`repro.service.verify.CHECK_KINDS`) and input spec.  Responds 200 with
  :func:`repro.service.wire.verify_result_to_wire` output; a verification
  that *errored* in simulation (bad input spec, strict-mode failure) is a
  422 with ``reason: "verify-failed"``, never a 500.  See
  ``docs/verification.md``.
* ``GET /v1/metrics`` — engine request counters plus executor and
  admission counters (``rejected_total``, ``queue_depth``, worker
  count).  ``?format=prometheus`` returns the same metrics — plus the
  per-stage span histograms — as Prometheus text exposition 0.0.4
  (:func:`repro.service.observability.render_prometheus`).
* ``GET /v1/cache/stats`` — cache occupancy and hit/miss counters.
* ``GET /healthz`` — liveness probe (never authenticated).

``?trace=1`` on the compile endpoints adds a ``"spans"`` field to each
result: the nested per-stage span tree (cache lookup, ILP solve, line-buffer
allocation, RTL generation) recorded while that job ran — see
``docs/observability.md``.

Access logs default to the stdlib's plain lines; ``--access-log json``
switches to one JSON object per request (identity, method, path, status,
seconds, fingerprint) for log pipelines, and ``--access-log none`` silences
them.  ``--event-log json`` additionally streams the service's *internal*
events — queue sheds, disk-cache GC — as JSON lines on the same stream
(:mod:`repro.service.events`).

Admission control
-----------------
``--auth-token-file`` turns on bearer-token authentication
(:class:`repro.service.admission.TokenAuthenticator`): every ``/v1/*``
request must carry ``Authorization: Bearer <token>`` or is answered 401;
without the flag the service stays anonymous (trusted-network mode) and the
client IP is the identity.  ``--rate-limit rps:burst`` adds a per-identity
token bucket — throttled requests get 429 with a precise ``Retry-After``.
``--max-pending`` bounds the engine's submission queue: a saturated engine
sheds cold submits with 429 (``reason: "queue-full"``) while in-flight work
completes.  See ``docs/serving.md`` for the full semantics and curl
examples.

Run a server::

    PYTHONPATH=src python -m repro.service.http --port 8080 \
        --cache-dir .imagen-cache --workers 4 \
        --auth-token-file tokens.txt --rate-limit 10:20 --max-pending 64

or embed one (tests, examples) with :func:`start_server`, and talk to it with
the :class:`ServiceClient` helper (stdlib ``http.client``, no dependencies),
which keeps its connections alive between requests.
``--cache-max-bytes``/``--cache-max-age-seconds`` bound a shared disk cache
volume (LRU-by-mtime eviction on save).
"""

from __future__ import annotations

import argparse
import json
import math
import socket
import sys
import threading
import time
from http.client import HTTPConnection, HTTPException
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.api.target import CompileTarget
from repro.errors import ReproError, SimulationError
from repro.service.admission import (
    QueueFullError,
    RateLimiter,
    TokenAuthenticator,
    parse_rate_limit,
    validate_max_pending,
)
from repro.service.cache import CompileCache, DiskCacheStore
from repro.service.engine import CompileEngine
from repro.service.events import configure_event_log
from repro.service.executor import validate_worker_count
from repro.service.observability import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.service.verify import VerifyEngine, VerifyRequest
from repro.service.wire import (
    WireFormatError,
    batch_result_to_wire,
    result_to_wire,
    target_from_wire,
    target_to_wire,
    verify_request_from_wire,
    verify_request_to_wire,
    verify_result_to_wire,
)

#: Upper bound on accepted request bodies; a pipeline DAG is a few KB, so
#: anything near this is hostile or corrupt.
MAX_REQUEST_BYTES = 8 * 1024 * 1024

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8080

#: Access-log modes: the stdlib's plain lines, one JSON object per request,
#: or silence.
ACCESS_LOG_MODES = ("plain", "json", "none")


def _query_flag(value: str | None) -> bool:
    """Interpret a query-string toggle (``?trace=1``): absent/falsy = off."""
    if value is None:
        return False
    return value.strip().lower() not in ("", "0", "false", "off", "no")


class ServiceError(ReproError):
    """A non-2xx response (or transport failure) from the compile service.

    Typed so callers can branch without parsing message strings:

    ``status``
        The HTTP status code, or ``None`` for transport-level failures
        (connection refused, mid-response disconnect).
    ``body``
        The parsed JSON error body (``{}`` when none could be read).
    ``retry_after``
        Seconds from the ``Retry-After`` header on 429 responses, else
        ``None`` — a client seeing it should back off, not retry hot.
    """

    def __init__(
        self,
        message: str,
        *,
        status: int | None = None,
        body: dict | None = None,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.body = body if body is not None else {}
        self.retry_after = retry_after


class CompileServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the server's shared :class:`CompileEngine`."""

    server_version = "ImaGenCompileService/1.0"
    # HTTP/1.1 keeps client connections alive between requests; every
    # response below carries an exact Content-Length, as 1.1 requires.
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a response goes out as headers, then body.  With Nagle on,
    # a kept-alive connection holds that second small segment until the
    # client's delayed ACK, about 40 ms per response.
    disable_nagle_algorithm = True

    @property
    def engine(self) -> CompileEngine:
        return self.server.engine

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        if self.server.access_log == "plain":
            super().log_message(format, *args)

    def _begin_request(self) -> tuple[str, dict]:
        """Reset per-request state (the handler lives for a keep-alive
        connection, not one request) and split the URL into path + query."""
        self._started = time.perf_counter()
        self._identity = ""
        self._fingerprint = ""
        parts = urlsplit(self.path)
        query = {key: values[-1] for key, values in parse_qs(parts.query).items()}
        return parts.path, query

    # -------------------------------------------------------------- admission
    def _identify(self) -> str | None:
        """Authenticate the request; returns the client identity or ``None``
        after sending a 401.

        Anonymous mode (no authenticator configured) keys identity on the
        client address, so rate limits and queue fairness still distinguish
        hosts on a trusted network.
        """
        authenticator = self.server.authenticator
        if authenticator is None:
            self._identity = f"ip:{self.client_address[0]}"
            return self._identity
        identity = authenticator.authenticate_header(self.headers.get("Authorization"))
        if identity is None:
            self._send(
                401,
                {"error": "Missing, invalid or expired bearer token"},
                extra_headers={"WWW-Authenticate": 'Bearer realm="imagen-compile"'},
            )
            return None
        self._identity = identity
        return identity

    def _throttle(self, identity: str, cost: int) -> bool:
        """Charge the rate limiter; returns False after sending a 429."""
        limiter = self.server.rate_limiter
        if limiter is None:
            return True
        decision = limiter.admit(identity, cost=cost)
        if decision.allowed:
            return True
        self._send_retry(
            f"Rate limit exceeded for {identity!r} "
            f"({limiter.rate:g} rps, burst {limiter.burst:g})",
            reason="rate-limited",
            retry_after=decision.retry_after,
        )
        return False

    def _send_retry(self, message: str, *, reason: str, retry_after: float) -> None:
        retry_after = max(0.0, retry_after)
        self._send(
            429,
            {"error": message, "reason": reason, "retry_after": round(retry_after, 3)},
            extra_headers={"Retry-After": str(max(1, math.ceil(retry_after)))},
        )

    # ----------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        path, query = self._begin_request()
        if path == "/healthz":
            self._send(200, {"status": "ok"})  # liveness stays unauthenticated
            return
        if self._identify() is None:
            return
        if path == "/v1/metrics":
            exposition = query.get("format", "json")
            if exposition == "prometheus":
                self._send_text(
                    200,
                    render_prometheus(
                        self._metrics(),
                        self.engine.metrics.stage_histograms(),
                        cache=self._cache_stats(),
                    ),
                    content_type=PROMETHEUS_CONTENT_TYPE,
                )
            elif exposition == "json":
                self._send(200, self._metrics())
            else:
                self._send(
                    400,
                    {"error": f"Unknown metrics format {exposition!r} (json, prometheus)"},
                )
        elif path == "/v1/cache/stats":
            self._send(200, self._cache_stats())
        else:
            self._send(404, {"error": f"Unknown path {path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        path, query = self._begin_request()
        if path == "/v1/compile":
            route = self._compile_one
        elif path == "/v1/batch":
            route = self._compile_batch
        elif path == "/v1/verify":
            route = self._verify_one
        else:
            self._send(404, {"error": f"Unknown path {path!r}"})
            return
        identity = self._identify()
        if identity is None:
            return
        payload = self._read_json()
        if payload is None:
            return  # error response already sent
        try:
            route(payload, identity, include_spans=_query_flag(query.get("trace")))
        except WireFormatError as exc:
            self._send(400, {"error": str(exc)})
        except QueueFullError as exc:
            # The engine's bounded queue shed this submit: degrade loudly and
            # cheaply, with the engine's own estimate of when to come back.
            self._send_retry(str(exc), reason="queue-full", retry_after=exc.retry_after)
        except SimulationError as exc:
            # A verification that could not produce a passing verdict (bad
            # input spec, strict-mode check failure) is a client-visible
            # outcome of *their* request, not a server fault: typed 422.
            self._send(422, {"error": str(exc), "reason": "verify-failed"})
        except Exception as exc:  # noqa: BLE001 - errors must be JSON, not resets
            # The service contract is "errors come back as JSON": an internal
            # failure becomes a 500 body instead of an opaque dropped socket.
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _compile_one(self, payload, identity: str, *, include_spans: bool = False) -> None:
        # Accept the bare wire target, or {"target": {...}} for symmetry with
        # the batch endpoint.
        if isinstance(payload, dict) and "target" in payload:
            payload = payload["target"]
        target = target_from_wire(payload)
        if not self._throttle(identity, cost=1):
            return
        result = self.engine.submit(target, client=identity)
        self._fingerprint = result.fingerprint
        self._send(200, result_to_wire(result, include_spans=include_spans))

    def _compile_batch(self, payload, identity: str, *, include_spans: bool = False) -> None:
        if not isinstance(payload, dict) or not isinstance(payload.get("targets"), list):
            raise WireFormatError('Batch body must be {"targets": [...]}')
        # Rate limiting charges one token per design point, not per HTTP
        # request — a 100-target batch costs what 100 single compiles would.
        if not self._throttle(identity, cost=max(1, len(payload["targets"]))):
            return
        decoded: list[CompileTarget | None] = []
        decode_errors: dict[int, str] = {}
        for index, item in enumerate(payload["targets"]):
            try:
                decoded.append(target_from_wire(item))
            except WireFormatError as exc:
                decoded.append(None)
                decode_errors[index] = str(exc)
        batch = self.engine.submit_batch(
            [t for t in decoded if t is not None], client=identity
        )
        body = batch_result_to_wire(batch, include_spans=include_spans)
        # Splice per-item decode failures back into request order: a bad
        # item degrades to an error entry in its slot, not a 500.
        compiled = iter(body["results"])
        body["results"] = [
            {"ok": False, "error": decode_errors[i], "fingerprint": "", "source": "error", "seconds": 0.0}
            if target is None
            else next(compiled)
            for i, target in enumerate(decoded)
        ]
        self._send(200, body)

    def _verify_one(self, payload, identity: str, *, include_spans: bool = False) -> None:
        request = verify_request_from_wire(payload)
        if not self._throttle(identity, cost=1):
            return
        result = self.server.verify_engine.submit(request, client=identity)
        self._fingerprint = result.fingerprint
        body = verify_result_to_wire(result, include_spans=include_spans)
        if result.error_kind == "SimulationError":
            # The checks themselves could not run against this input spec
            # (zero frames, bad resolution): the request is well-formed JSON
            # but un-verifiable — a client error, not a server fault.
            self._send(422, {**body, "reason": "verify-failed"})
            return
        self._send(200, body)

    # -------------------------------------------------------------- plumbing
    def _metrics(self) -> dict:
        """Engine counters + executor + admission/throttle state.

        One flat JSON object: the acceptance keys are ``rejected_total``,
        ``queue_depth`` and ``workers``.
        """
        summary = self.engine.metrics.summary()
        summary.update(self.engine.executor_stats())
        summary.update(self.engine.admission_stats())
        for key, value in self.server.verify_engine.stats().items():
            summary[f"verify_{key}"] = value
        summary["auth"] = "token" if self.server.authenticator else "anonymous"
        limiter = self.server.rate_limiter
        if limiter is not None:
            summary["rate_limit"] = limiter.stats()
            summary["throttled_total"] = limiter.throttled_total
        else:
            summary["throttled_total"] = 0
        return summary

    def _cache_stats(self) -> dict:
        cache = self.engine.cache
        stats = {
            "entries": len(cache),
            "max_entries": cache.max_entries,
            **cache.stats.as_dict(),
        }
        if cache.store is not None:
            stats["disk_entries"] = len(cache.store)
            stats["disk_directory"] = str(cache.store.directory)
            if cache.store.bounded:
                stats["disk_bytes"] = cache.store.total_bytes()
                stats["disk_max_bytes"] = cache.store.max_bytes
                stats["disk_max_age_seconds"] = cache.store.max_age_seconds
        return stats

    def _read_json(self):
        """Parse the request body; on failure send the 4xx and return None."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            length = -1
        if length < 0:
            self._send(400, {"error": "Missing or invalid Content-Length"})
            return None
        if length > MAX_REQUEST_BYTES:
            self._send(413, {"error": f"Request body exceeds {MAX_REQUEST_BYTES} bytes"})
            return None
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            self._send(400, {"error": "Request body is not valid JSON"})
            return None

    def _send(self, status: int, payload: dict, *, extra_headers: dict | None = None) -> None:
        self._send_bytes(
            status,
            json.dumps(payload).encode("utf-8"),
            content_type="application/json",
            extra_headers=extra_headers,
        )

    def _send_text(self, status: int, text: str, *, content_type: str) -> None:
        self._send_bytes(status, text.encode("utf-8"), content_type=content_type)

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        *,
        content_type: str,
        extra_headers: dict | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if status >= 400:
            # Error paths may not have drained the request body; carrying on
            # with keep-alive would let those bytes be parsed as the next
            # request line and desync the connection.  Close instead.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)
        if self.server.access_log == "json":
            self._log_json(status, len(body))

    def _log_json(self, status: int, body_bytes: int) -> None:
        """One JSON line per answered request, on the stdlib's log stream."""
        record = {
            "ts": round(time.time(), 3),
            "identity": getattr(self, "_identity", ""),
            "method": self.command,
            "path": self.path,
            "status": status,
            "seconds": round(
                time.perf_counter() - getattr(self, "_started", time.perf_counter()), 6
            ),
            "bytes": body_bytes,
        }
        if getattr(self, "_fingerprint", ""):
            record["fingerprint"] = self._fingerprint
        sys.stderr.write(json.dumps(record) + "\n")


class CompileServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one shared :class:`CompileEngine`.

    ``authenticator`` (a :class:`TokenAuthenticator`) turns on bearer-token
    auth for every ``/v1/*`` endpoint; ``rate_limiter`` (a
    :class:`RateLimiter`) throttles compile submissions per identity.  Both
    default to off, preserving the trusted-network behaviour.

    ``POST /v1/verify`` is served by a :class:`VerifyEngine` over the
    shared engine (its queue bound, verdicts persisted to the engine's
    disk-cache volume if any).

    ``access_log`` selects the per-request log style: ``"plain"`` (the
    stdlib's lines), ``"json"`` (one object per request) or ``"none"``
    (the default).

    Connections stay open between requests for as long as the client keeps
    them; the server adds no idle timeout.  It records the sockets it
    accepts, and :meth:`server_close` shuts down their read side, so a
    handler thread waiting on an idle kept-alive connection ends instead of
    outliving the server.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        engine: CompileEngine,
        *,
        access_log: str = "none",
        authenticator: TokenAuthenticator | None = None,
        rate_limiter: RateLimiter | None = None,
    ) -> None:
        self.engine = engine
        self.verify_engine = VerifyEngine(engine)
        if access_log not in ACCESS_LOG_MODES:
            raise ValueError(
                f"access_log must be one of {ACCESS_LOG_MODES}, got {access_log!r}"
            )
        self.access_log = access_log
        self.authenticator = authenticator
        self.rate_limiter = rate_limiter
        self._serve_thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, CompileServiceHandler)

    @property
    def port(self) -> int:
        """The bound port (useful with the ephemeral ``port=0``)."""
        return self.server_address[1]

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def close_request(self, request) -> None:
        # Under the lock, so server_close never shuts down a closed socket.
        with self._connections_lock:
            self._connections.discard(request)
        super().close_request(request)

    def server_close(self) -> None:
        """Release the listening socket and end every open connection.

        Shutting down an accepted socket's read side makes its handler's
        next read return end-of-file: an idle connection's handler returns
        at once, a busy one after sending its response.
        """
        super().server_close()
        with self._connections_lock:
            for request in self._connections:
                try:
                    request.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the peer already reset it

    def stop(self) -> None:
        """Stop serving and release the socket (the engine stays usable)."""
        self.shutdown()
        self.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10)
            self._serve_thread = None


def start_server(
    engine: CompileEngine,
    *,
    host: str = DEFAULT_HOST,
    port: int = 0,
    access_log: str = "none",
    authenticator: TokenAuthenticator | None = None,
    rate_limiter: RateLimiter | None = None,
) -> CompileServiceServer:
    """Boot a service in a background thread; returns the bound server.

    ``port=0`` binds an ephemeral port (read it back from ``server.port``) —
    the shape tests and examples want.  Call :meth:`CompileServiceServer.stop`
    when done; the engine's lifecycle stays with the caller.
    ``authenticator``/``rate_limiter`` enable admission control exactly like
    the ``--auth-token-file``/``--rate-limit`` CLI flags, and ``access_log``
    selects the log style like ``--access-log``.
    """
    server = CompileServiceServer(
        (host, port),
        engine,
        access_log=access_log,
        authenticator=authenticator,
        rate_limiter=rate_limiter,
    )
    thread = threading.Thread(
        target=server.serve_forever, name="repro-http-serve", daemon=True
    )
    server._serve_thread = thread
    thread.start()
    return server


class ServiceClient:
    """Minimal stdlib client for the compile service.

    The client keeps its HTTP/1.1 connections alive, so a warm request pays
    no TCP connect and no server thread start.  Idle connections wait on a
    lock-guarded stack: a request takes the most recently used one, or opens
    an ``http.client.HTTPConnection`` when none is idle, and puts it back
    after a complete response unless the server closed it (every 4xx/5xx
    carries ``Connection: close``).  So one client is safe to share between
    threads and holds at most as many connections as it has requests in
    flight.  The server adds no idle timeout; call :meth:`close` (or use
    the client as a context manager) to close the idle connections.

    A server that closed an idle connection (it stopped, or restarted on
    the same port) shows on the next request over it as a reset, a broken
    pipe or an empty reply.  The client then closes its other idle
    connections and sends that request once more on a new connection.
    Compiles and verdicts are content-addressed, so a resend never does the
    work twice.  Any other transport failure, and any failure on a new
    connection, raises :class:`ServiceError` with ``status=None`` at once.

    Responses are the parsed JSON bodies.  Non-2xx responses — including
    the admission layer's 401 and 429 — raise :class:`ServiceError`
    carrying ``status``, the parsed error ``body`` and (on 429)
    ``retry_after``.  Compile *failures* are 200s with ``ok: false`` —
    inspect the returned dict.  ``token`` is sent as ``Authorization:
    Bearer <token>`` on every request.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        timeout: float = 120.0,
        token: str | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.token = token
        self._idle: list[HTTPConnection] = []
        self._idle_lock = threading.Lock()

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the idle connections; a later request opens a new one."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def compile(self, target: CompileTarget, *, trace: bool = False) -> dict:
        """Compile one target remotely; returns the wire-format result.

        ``trace=True`` asks the service for the per-stage span tree
        (``?trace=1``); it comes back under the result's ``"spans"`` key.
        """
        path = "/v1/compile?trace=1" if trace else "/v1/compile"
        return self._request("POST", path, target_to_wire(target))

    def compile_batch(self, targets, *, trace: bool = False) -> dict:
        """Compile an ordered batch; per-item errors come back in their slots."""
        path = "/v1/batch?trace=1" if trace else "/v1/batch"
        return self._request(
            "POST", path, {"targets": [target_to_wire(t) for t in targets]}
        )

    def verify(
        self,
        target: CompileTarget,
        *,
        check: str = "both",
        frames: int = 2,
        seed: int = 0,
        tolerance: float = 0.0,
        expected_digest: str | None = None,
        strict: bool = False,
        trace: bool = False,
    ) -> dict:
        """Verify one target remotely; returns the wire-format verdict.

        Check *failures* come back as 200s with ``passed: false``; an
        un-runnable check (bad input spec, ``strict=True`` on a failing
        design) raises :class:`ServiceError` with ``status=422`` and
        ``body["reason"] == "verify-failed"``.  ``trace=True`` adds the
        ``verify`` span tree: ``verify_compile``, then one of
        ``verify_golden``/``verify_cycle``/``verify_rtl``/``verify_perf``
        per check run.
        """
        request = VerifyRequest(
            target=target,
            check=check,
            frames=frames,
            seed=seed,
            tolerance=tolerance,
            expected_digest=expected_digest,
            strict=strict,
        )
        path = "/v1/verify?trace=1" if trace else "/v1/verify"
        return self._request("POST", path, verify_request_to_wire(request))

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")

    def metrics_prometheus(self) -> str:
        """The Prometheus text exposition (``?format=prometheus``), verbatim."""
        return self._request("GET", "/v1/metrics?format=prometheus", raw=True)

    def cache_stats(self) -> dict:
        return self._request("GET", "/v1/cache/stats")

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def _request(
        self, method: str, path: str, payload: dict | None = None, *, raw: bool = False
    ):
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body is not None else {}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        with self._idle_lock:
            connection = self._idle.pop() if self._idle else None
        reused = connection is not None
        while True:
            if connection is None:
                connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                body_bytes = response.read()
                break
            except (OSError, HTTPException) as exc:
                connection.close()
                # RemoteDisconnected is a ConnectionResetError.
                if reused and isinstance(exc, (BrokenPipeError, ConnectionResetError)):
                    # The server closed this idle connection, so it has
                    # closed the other idle ones too.
                    self.close()
                    connection, reused = None, False
                    continue
                # Surface transport failures as the same typed error clients
                # already catch, instead of whatever http.client raises.
                raise ServiceError(
                    f"{method} {path} failed: {type(exc).__name__}: {exc}"
                ) from exc
            except BaseException:  # interrupted mid-request: unfit for reuse
                connection.close()
                raise
        if connection.sock is not None:  # http.client closes it on Connection: close
            with self._idle_lock:
                self._idle.append(connection)
        if raw and response.status < 400:
            return body_bytes.decode("utf-8", "replace")
        try:
            data = json.loads(body_bytes.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            data = {"error": body_bytes[:200].decode("utf-8", "replace")}
        if response.status >= 400:
            retry_after = None
            header = response.getheader("Retry-After")
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    retry_after = None
            raise ServiceError(
                f"{method} {path} -> HTTP {response.status}: {data.get('error', data)}",
                status=response.status,
                body=data if isinstance(data, dict) else {"error": data},
                retry_after=retry_after,
            )
        return data


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.service.http`` argument parser.

    Split out of :func:`main` so the generated CLI-flag table in
    ``docs/serving.md`` (``tools/gen_docs_tables.py``) and the tests render
    the real parser instead of a hand-maintained copy.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.http",
        description="Serve ImaGen compile requests over HTTP/JSON.",
    )
    parser.add_argument("--host", default=DEFAULT_HOST, help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT, help="bind port (default: %(default)s)")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the persistent disk cache tier (default: memory-only)",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        help="size bound for the disk cache volume; LRU entries are evicted on save",
    )
    parser.add_argument(
        "--cache-max-age-seconds",
        type=float,
        default=None,
        help="age bound for disk cache entries; stale entries are evicted on save",
    )
    parser.add_argument(
        "--workers", default=None, help="engine worker threads (default: REPRO_WORKERS or auto)"
    )
    parser.add_argument(
        "--max-cache-entries", type=int, default=512, help="in-memory LRU capacity (default: %(default)s)"
    )
    parser.add_argument(
        "--auth-token-file",
        default=None,
        help="enable bearer-token auth: a file of 'token', 'identity:token' or "
        "'identity:token:expires=<epoch>' lines (default: anonymous)",
    )
    parser.add_argument(
        "--rate-limit",
        default=None,
        metavar="RPS:BURST",
        help="per-identity token-bucket rate limit on compile submissions, "
        "e.g. 10:20 (default: unlimited)",
    )
    parser.add_argument(
        "--max-pending",
        default=None,
        help="bound on compile and verify jobs waiting beyond the free workers "
        "(default: REPRO_MAX_PENDING or unbounded)",
    )
    parser.add_argument(
        "--access-log",
        choices=ACCESS_LOG_MODES,
        default="plain",
        help="per-request log style: plain (stdlib lines), json (one object "
        "per request: identity, path, status, seconds, fingerprint) or none "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--event-log",
        choices=("json", "none"),
        default=None,
        help="engine-internal event stream (queue sheds, cache GC) as JSON "
        "lines on stderr (default: REPRO_EVENT_LOG or none)",
    )
    return parser


def main(argv=None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        workers = (
            None
            if args.workers is None
            else validate_worker_count(args.workers, source="--workers")
        )
        max_pending = (
            None
            if args.max_pending is None
            else validate_max_pending(args.max_pending, source="--max-pending")
        )
        authenticator = (
            TokenAuthenticator.from_file(args.auth_token_file)
            if args.auth_token_file is not None
            else None
        )
        rate_limiter = None
        if args.rate_limit is not None:
            rate, burst = parse_rate_limit(args.rate_limit)
            rate_limiter = RateLimiter(rate, burst)
        cache = None
        if args.cache_dir is not None:
            store = DiskCacheStore(
                args.cache_dir,
                max_bytes=args.cache_max_bytes,
                max_age_seconds=args.cache_max_age_seconds,
            )
            cache = CompileCache(max_entries=args.max_cache_entries, store=store)
        elif args.cache_max_bytes is not None or args.cache_max_age_seconds is not None:
            parser.error("--cache-max-bytes/--cache-max-age-seconds require --cache-dir")
        engine = CompileEngine(
            workers=workers,
            cache=cache,
            max_cache_entries=args.max_cache_entries,
            max_pending=max_pending,
        )
    except (OSError, ValueError) as exc:  # bad flags, env bounds, token file
        parser.error(str(exc))
    if args.event_log is not None:
        configure_event_log(enabled=args.event_log == "json")
    server = CompileServiceServer(
        (args.host, args.port),
        engine,
        access_log=args.access_log,
        authenticator=authenticator,
        rate_limiter=rate_limiter,
    )
    cache_note = f", cache-dir={args.cache_dir}" if args.cache_dir else ""
    admission_note = (
        f", auth={'token' if authenticator else 'anonymous'}"
        + (f", rate-limit={args.rate_limit}" if rate_limiter else "")
        + (f", max-pending={max_pending}" if max_pending else "")
    )
    print(
        f"imagen compile service on http://{args.host}:{server.port} "
        f"(executor={engine.executor_name}, workers={engine.workers}{cache_note}"
        f"{admission_note}) — Ctrl-C to stop"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        engine.shutdown()


if __name__ == "__main__":
    main()
