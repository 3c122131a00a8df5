"""Admission control for the compilation service.

Stability: public.

The serving stack (``repro.service.http`` in front of
:class:`repro.service.engine.CompileEngine`) historically trusted every
client and accepted unbounded work.  This module is the layer that lets a
shared deployment degrade *predictably* instead: every request is
authenticated, rate-limited and queued under an explicit bound before any
solver runs.  Three independent pieces compose:

* :class:`TokenAuthenticator` — static bearer-token authentication.  Tokens
  are loaded from a text file (one per line, ``identity:token`` or bare
  ``token``, optional ``:expires=<epoch>`` suffix) and checked with a
  constant-time digest compare, so the HTTP front never leaks token prefixes
  through timing.  The authenticated *identity* is what rate limits and
  queue fairness key on.
* :class:`RateLimiter` — a per-identity token bucket (``rate`` tokens per
  second, ``burst`` capacity).  Batch submissions charge one token per
  target, so the limit tracks solver cost rather than HTTP request count; a
  denied request carries the exact ``retry_after`` seconds until the bucket
  can pay for it.
* :class:`AdmissionQueue` — a bounded submission queue between the engine's
  dedup table and its executor backend.  At most ``width`` jobs are
  dispatched concurrently; at most ``max_pending`` more may wait, and a
  submission beyond that is shed with :class:`QueueFullError` (mapped to
  HTTP 429 with ``Retry-After``).  Pending work drains **round-robin across
  client identities**, so one flooding client cannot starve the others —
  with two competing identities each gets every other worker slot regardless
  of how deep the flooder's backlog is.

:class:`SingleFlight` is the one in-flight table both
:class:`repro.service.engine.CompileEngine` and
:class:`repro.service.verify.VerifyEngine` run their jobs through: an
identical key joins the running flight instead of starting a second one,
and the owner's job reaches the executor backend directly or through an
:class:`AdmissionQueue`.

The engine enables the queue with ``CompileEngine(max_pending=...)`` (or the
``REPRO_MAX_PENDING`` environment variable) and threads the client identity
through ``submit(..., client=...)``; the HTTP front wires all three pieces
together (``--auth-token-file``, ``--rate-limit``, ``--max-pending``) and
surfaces their counters on ``GET /v1/metrics`` (``rejected_total``,
``throttled_total``, ``queue_depth``).  See ``docs/serving.md`` for the
end-to-end semantics and ``docs/tuning.md`` for sizing guidance.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from concurrent.futures import CancelledError, Future

from repro.errors import ReproError
from repro.service.events import emit_event
from repro.service.executor import (
    ExecutorBackend,
    relay_future,
    validate_worker_count,
)

#: Environment variable enabling the engine's bounded submission queue when
#: ``CompileEngine(max_pending=...)`` is not passed explicitly.
MAX_PENDING_ENV_VAR = "REPRO_MAX_PENDING"

#: Identity assigned to requests when authentication is disabled and the
#: transport provides none (e.g. direct library calls).
ANONYMOUS_IDENTITY = "anonymous"


class AdmissionError(ReproError):
    """Base class for admission-control rejections."""


class QueueFullError(AdmissionError):
    """The engine's bounded submission queue rejected (shed) a job.

    ``retry_after`` is the service's best estimate, in seconds, of when
    resubmitting is worthwhile (the HTTP front forwards it as a
    ``Retry-After`` header).
    """

    def __init__(self, message: str, *, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = max(0.0, float(retry_after))


class AuthenticationError(AdmissionError):
    """A request that could not be authenticated (HTTP 401)."""


def validate_max_pending(value, *, source: str = "max_pending") -> int:
    """Check a queue-bound setting; garbage raises :class:`ValueError`.

    The check is :func:`repro.service.executor.validate_worker_count`'s:
    ``0``, negatives and non-integers name the offending setting instead of
    silently mis-sizing a production queue.
    """
    return validate_worker_count(value, source=source)


def default_max_pending() -> int | None:
    """Queue bound from ``REPRO_MAX_PENDING``, or ``None`` (unbounded)."""
    override = os.environ.get(MAX_PENDING_ENV_VAR, "").strip()
    if not override:
        return None
    return validate_max_pending(override, source=MAX_PENDING_ENV_VAR)


# ---------------------------------------------------------------------------
# Authentication
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TokenRecord:
    """One credential: an identity, its secret, and an optional expiry."""

    identity: str
    token: str
    expires_epoch: float | None = None

    def expired(self, now: float) -> bool:
        return self.expires_epoch is not None and now >= self.expires_epoch


def _token_digest(token: str) -> bytes:
    return hashlib.sha256(token.encode("utf-8")).digest()


def _default_identity(token: str) -> str:
    return "token-" + hashlib.sha256(token.encode("utf-8")).hexdigest()[:8]


def parse_token_line(line: str, *, lineno: int = 0) -> TokenRecord | None:
    """Parse one token-file line; blank lines and ``#`` comments yield None.

    Accepted forms::

        <token>                        # identity derived from the token hash
        <identity>:<token>
        <identity>:<token>:expires=<unix-epoch-seconds>
    """
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    parts = text.split(":")
    expires: float | None = None
    if len(parts) >= 2 and parts[-1].startswith("expires="):
        raw = parts.pop()[len("expires="):]
        try:
            expires = float(raw)
        except ValueError:
            raise ValueError(
                f"token file line {lineno}: bad expiry {raw!r} (want unix epoch seconds)"
            ) from None
    if len(parts) == 1:
        identity, token = _default_identity(parts[0]), parts[0]
    elif len(parts) == 2:
        identity, token = parts
    else:
        raise ValueError(
            f"token file line {lineno}: expected 'token', 'identity:token' or "
            f"'identity:token:expires=<epoch>'"
        )
    identity = identity.strip()
    token = token.strip()
    if not token:
        raise ValueError(f"token file line {lineno}: empty token")
    if not identity:
        identity = _default_identity(token)
    return TokenRecord(identity=identity, token=token, expires_epoch=expires)


class TokenAuthenticator:
    """Static bearer-token authentication with constant-time comparison.

    Presented tokens are compared against every record by SHA-256 digest via
    :func:`hmac.compare_digest`; the scan never short-circuits on the first
    byte mismatch and digest lengths are uniform, so response timing carries
    no information about stored tokens.  Expired records fail exactly like
    unknown tokens.
    """

    def __init__(self, records: Iterable[TokenRecord], *, clock: Callable[[], float] = time.time) -> None:
        self._records = [
            (record, _token_digest(record.token)) for record in records
        ]
        if not self._records:
            raise ValueError("TokenAuthenticator needs at least one token record")
        self._clock = clock

    @classmethod
    def from_file(cls, path: str | os.PathLike, *, clock: Callable[[], float] = time.time) -> "TokenAuthenticator":
        """Load credentials from a token file (see :func:`parse_token_line`)."""
        records = []
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            record = parse_token_line(line, lineno=lineno)
            if record is not None:
                records.append(record)
        if not records:
            raise ValueError(f"token file {os.fspath(path)!r} contains no tokens")
        return cls(records, clock=clock)

    def __len__(self) -> int:
        return len(self._records)

    def authenticate_token(self, token: str) -> str | None:
        """Identity for a presented token, or ``None`` if it does not match.

        Every stored record is compared (constant work regardless of where —
        or whether — the match occurs); expired credentials never match.
        """
        presented = _token_digest(token)
        now = self._clock()
        matched: str | None = None
        for record, digest in self._records:
            if hmac.compare_digest(presented, digest) and not record.expired(now):
                matched = record.identity
        return matched

    def authenticate_header(self, header: str | None) -> str | None:
        """Identity for an ``Authorization`` header value, or ``None``.

        Only the ``Bearer <token>`` scheme is accepted; a missing header,
        another scheme, or a non-matching/expired token all return ``None``.
        """
        if not header:
            return None
        scheme, _, token = header.partition(" ")
        if scheme.lower() != "bearer" or not token.strip():
            return None
        return self.authenticate_token(token.strip())


# ---------------------------------------------------------------------------
# Rate limiting
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RateDecision:
    """Outcome of one rate-limit check."""

    allowed: bool
    retry_after: float = 0.0


def parse_rate_limit(text: str) -> tuple[float, float]:
    """Parse a ``rps:burst`` flag value into ``(rate, burst)``.

    ``"10:20"`` allows sustained 10 requests/second with bursts of 20; a bare
    ``"10"`` defaults the burst to the rate.  Rates and bursts must be
    positive (fractional rates like ``0.5`` — one request every two seconds —
    are valid).
    """
    parts = text.split(":")
    if len(parts) not in (1, 2):
        raise ValueError(f"rate limit must be 'rps' or 'rps:burst', got {text!r}")
    try:
        rate = float(parts[0])
        burst = float(parts[1]) if len(parts) == 2 else max(rate, 1.0)
    except ValueError:
        raise ValueError(f"rate limit must be numeric 'rps:burst', got {text!r}") from None
    if rate <= 0 or burst <= 0:
        raise ValueError(f"rate limit values must be > 0, got {text!r}")
    return rate, burst


@dataclass
class _Bucket:
    tokens: float
    updated: float


class RateLimiter:
    """Per-identity token buckets: ``rate`` tokens/second, ``burst`` capacity.

    Each admitted request (or batch target — cost is charged per design
    point) spends one token; buckets refill continuously and start full, so
    a client may burst up to ``burst`` requests before the sustained rate
    binds.  A charge larger than the bucket capacity is admitted when the
    bucket is full and drives it negative — the overdraft delays that
    client's subsequent requests, so the long-run rate still holds for
    batches bigger than the burst allowance.
    """

    def __init__(self, rate: float, burst: float, *, clock: Callable[[], float] = time.monotonic) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError(f"rate and burst must be > 0, got rate={rate}, burst={burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._buckets: dict[str, _Bucket] = {}
        self._lock = threading.Lock()
        self.throttled_total = 0
        self.admitted_total = 0

    def admit(self, identity: str, cost: float = 1.0) -> RateDecision:
        """Charge ``cost`` tokens to ``identity``'s bucket, or deny with a
        precise ``retry_after``."""
        cost = max(float(cost), 0.0)
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get(identity)
            if bucket is None:
                bucket = self._buckets[identity] = _Bucket(tokens=self.burst, updated=now)
            else:
                elapsed = max(0.0, now - bucket.updated)
                bucket.tokens = min(self.burst, bucket.tokens + elapsed * self.rate)
                bucket.updated = now
            # A cost above the burst capacity can never be pre-paid in full;
            # require a full bucket instead and let the overdraft delay what
            # comes next (documented in the class docstring).
            required = min(cost, self.burst)
            if bucket.tokens >= required:
                bucket.tokens -= cost
                self.admitted_total += 1
                return RateDecision(allowed=True)
            self.throttled_total += 1
            retry_after = (required - bucket.tokens) / self.rate
            return RateDecision(allowed=False, retry_after=retry_after)

    def stats(self) -> dict:
        with self._lock:
            return {
                "rate": self.rate,
                "burst": self.burst,
                "clients": len(self._buckets),
                "admitted_total": self.admitted_total,
                "throttled_total": self.throttled_total,
            }


# ---------------------------------------------------------------------------
# Bounded, fair submission queue
# ---------------------------------------------------------------------------
#: A queued dispatch: calling it performs the real executor submission and
#: returns the backend future to track, or ``None`` if submission failed (in
#: which case the dispatch itself settled the caller-visible future).
DispatchFn = Callable[[], "Future | None"]

#: A waiting job: its dispatch, and the hook :meth:`AdmissionQueue.cancel_pending`
#: runs instead when it drops the job.
_PendingJob = tuple[DispatchFn, "Callable[[], None] | None"]


class AdmissionQueue:
    """Bounded submission queue with per-client round-robin fairness.

    Sits between the engine's dedup table and its executor backend: at most
    ``width`` jobs are dispatched (handed to the executor) at a time, and at
    most ``max_pending`` more may wait.  When the wait queue is full,
    :meth:`submit` raises :class:`QueueFullError` — explicit backpressure,
    never unbounded growth.

    Pending work is organised as one FIFO per client identity, drained
    round-robin: each time a slot frees, the next *identity* in rotation runs
    its oldest job.  Within one client, order is preserved; across clients, a
    flood from one identity cannot starve another.
    """

    def __init__(
        self,
        width: int,
        *,
        max_pending: int,
        retry_after: Callable[[], float] | None = None,
    ) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self.width = int(width)
        self.max_pending = validate_max_pending(max_pending)
        self._retry_after = retry_after
        self._lock = threading.Lock()
        self._local = threading.local()
        self._queues: dict[str, deque[_PendingJob]] = {}
        self._rotation: deque[str] = deque()
        self._pending_count = 0
        self._inflight = 0
        self.admitted_total = 0
        self.rejected_total = 0

    # ------------------------------------------------------------------ API
    def submit(
        self,
        dispatch: DispatchFn,
        *,
        client: str = "",
        on_cancel: Callable[[], None] | None = None,
    ) -> None:
        """Admit one job, dispatching it now or queueing it for a free slot.

        Raises :class:`QueueFullError` when ``max_pending`` jobs are already
        waiting.  ``dispatch`` runs outside the queue's lock; ``on_cancel``
        runs instead of it if :meth:`cancel_pending` drops the job first.
        """
        client = client or ANONYMOUS_IDENTITY
        with self._lock:
            if self._pending_count >= self.max_pending:
                self.rejected_total += 1
                raise QueueFullError(
                    f"compile queue is full ({self._pending_count} pending, "
                    f"bound {self.max_pending}); resubmit later",
                    retry_after=self._estimate_retry_after(),
                )
            queue = self._queues.get(client)
            if queue is None:
                queue = self._queues[client] = deque()
                self._rotation.append(client)
            queue.append((dispatch, on_cancel))
            self._pending_count += 1
            self.admitted_total += 1
        self._pump()

    def cancel_pending(self) -> int:
        """Drop every queued-but-undispatched job; returns how many.

        Each dropped job's ``on_cancel`` hook runs (outside the lock), so
        futures published for those jobs settle with ``CancelledError``
        instead of dangling.  In-flight dispatches are untouched — cancelling
        those is the executor backend's business
        (:meth:`SingleFlight.shutdown` does both).
        """
        with self._lock:
            dropped = [job for queue in self._queues.values() for job in queue]
            self._queues.clear()
            self._rotation.clear()
            self._pending_count = 0
        for _, on_cancel in dropped:
            if on_cancel is not None:
                try:
                    on_cancel()
                except Exception:
                    pass  # cancellation is best-effort cleanup
        return len(dropped)

    def stats(self) -> dict:
        with self._lock:
            return {
                "max_pending": self.max_pending,
                "queue_depth": self._pending_count,
                "inflight": self._inflight,
                "admitted_total": self.admitted_total,
                "rejected_total": self.rejected_total,
                "queued_clients": len(self._queues),
            }

    # ------------------------------------------------------------ internals
    def _estimate_retry_after(self) -> float:
        if self._retry_after is None:
            return 1.0
        try:
            return max(0.1, float(self._retry_after()))
        except Exception:
            return 1.0

    def _next_job_locked(self) -> _PendingJob:
        # Round-robin across identities: take the head identity's oldest job,
        # then move that identity to the back of the rotation (or retire it
        # when its queue drains).
        client = self._rotation.popleft()
        queue = self._queues[client]
        job = queue.popleft()
        if queue:
            self._rotation.append(client)
        else:
            del self._queues[client]
        self._pending_count -= 1
        return job

    def _pump(self) -> None:
        """Dispatch queued jobs while slots are free (dispatch outside the lock).

        Re-entrancy guard: a dispatch can settle on this very thread (a
        backend ``submit`` that raises, or a job that finishes before its
        done-callback is attached, which then runs at once), and its
        completion calls back into ``_pump``; the guard makes that inner
        call a no-op so the outer ``while`` loop drains the queue
        iteratively instead of recursing once per queued job.
        """
        if getattr(self._local, "pumping", False):
            return
        self._local.pumping = True
        try:
            while True:
                with self._lock:
                    if self._inflight >= self.width or not self._pending_count:
                        return
                    dispatch, _ = self._next_job_locked()
                    self._inflight += 1
                try:
                    tracked = dispatch()
                except BaseException:
                    tracked = None  # anything escaping must still free the slot
                if tracked is None:
                    self._job_done(None)
                else:
                    tracked.add_done_callback(self._job_done)
        finally:
            self._local.pumping = False

    def _job_done(self, _future: Future | None) -> None:
        with self._lock:
            self._inflight -= 1
        self._pump()


# ---------------------------------------------------------------------------
# Single-flight dispatch
# ---------------------------------------------------------------------------
class SingleFlight:
    """One in-flight table in front of one executor backend.

    :meth:`claim` joins a key's running flight or owns a new one, whose
    placeholder future forgets the key when it settles; :meth:`dispatch`
    runs the owner's job on the backend, through a bounded
    :class:`AdmissionQueue` when ``max_pending`` is set.  The placeholder is
    marked running before it is published, so a joiner that calls its
    ``cancel()`` cannot break the owner.
    """

    def __init__(
        self,
        executor: ExecutorBackend,
        *,
        max_pending: int | None,
        retry_after: Callable[[], float],
    ) -> None:
        self.executor = executor
        # The dispatch width follows the *backend's* fleet: a ready-made
        # ExecutorBackend instance may size itself apart from the engine.
        self.queue = (
            None
            if max_pending is None
            else AdmissionQueue(
                executor.workers, max_pending=max_pending, retry_after=retry_after
            )
        )
        self._lock = threading.Lock()
        self._inflight: dict[str, Future] = {}

    def claim(
        self, key: str, recall: Callable[[], object] | None = None
    ) -> tuple[object, Future | None, bool]:
        """Join ``key``'s flight or own a new one: ``(recalled, future, owner)``.

        ``recall`` runs first, under the same lock hold as the in-flight
        lookup.  A flight stores its answer before it settles and forgets
        its key, so a caller whose own cache read missed just before an
        identical flight landed finds that answer here: a non-``None``
        ``recall()`` comes back as ``recalled``, with no future.
        """
        with self._lock:
            if recall is not None:
                recalled = recall()
                if recalled is not None:
                    return recalled, None, False
            future = self._inflight.get(key)
            if future is not None:
                return None, future, False
            future = self._inflight[key] = Future()
            future.set_running_or_notify_cancel()
        future.add_done_callback(lambda _done: self._forget(key, future))
        return None, future, True

    def _forget(self, key: str, future: Future) -> None:
        with self._lock:
            if self._inflight.get(key) is future:
                del self._inflight[key]

    def dispatch(
        self, future: Future, job: Callable, target, key: str, *, client: str = ""
    ) -> None:
        """Run an owned flight's ``job(target, key)`` on the backend.

        Every outcome lands in ``future``, never in a raise: the job's
        result, whatever the backend's ``submit`` raises, a full queue's
        :class:`QueueFullError` (with a ``queue.shed`` event), or
        ``CancelledError`` when ``shutdown(cancel_pending=True)`` drops the
        queued job.  So no joiner and no later claim waits on a flight that
        cannot land.  Without a queue ``submit`` runs now; with one, once a
        dispatch slot frees, possibly on another thread.
        """

        def submit() -> Future | None:
            try:
                inner = self.executor.submit(job, target, key)
            except BaseException as exc:
                future.set_exception(exc)
                return None
            inner.add_done_callback(lambda done: relay_future(done, future))
            return inner

        if self.queue is None:
            submit()
            return
        try:
            self.queue.submit(
                submit,
                client=client,
                on_cancel=lambda: future.set_exception(CancelledError()),
            )
        except BaseException as exc:  # QueueFullError, or a broken queue
            future.set_exception(exc)
            if isinstance(exc, QueueFullError):
                emit_event(
                    "queue.shed",
                    identity=client,
                    fingerprint=key,
                    retry_after=round(exc.retry_after, 3),
                )

    def shutdown(self, wait: bool = True, *, cancel_pending: bool = False) -> None:
        """Stop the backend; ``cancel_pending`` first drops queued flights."""
        if cancel_pending and self.queue is not None:
            self.queue.cancel_pending()
        self.executor.shutdown(wait, cancel_pending=cancel_pending)

    def admission_stats(self) -> dict:
        """The queue's counters; without a queue, the same keys at zero."""
        if self.queue is None:
            return {
                "max_pending": None,
                "queue_depth": 0,
                "inflight": 0,
                "admitted_total": 0,
                "rejected_total": 0,
                "queued_clients": 0,
            }
        return self.queue.stats()
