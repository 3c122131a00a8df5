"""Admission control and the job queue of the compilation service.

Stability: public.

The serving stack (``repro.service.http`` in front of
:class:`repro.service.engine.CompileEngine`) lets a shared deployment
degrade *predictably*: every request is authenticated, rate-limited and
queued under an explicit bound before any solver runs.  Four pieces:

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
* :class:`JobQueue` — the jobs that have not started, and the engine's
  ``workers`` threads that run them.  Jobs drain **round-robin across
  client identities**, so one flooding client cannot starve the others.
  With ``max_pending`` set, at most that many jobs wait beyond the free
  workers, and a job beyond that is shed with :class:`QueueFullError`
  (mapped to HTTP 429 with ``Retry-After``).  A worker that waits for a
  job still queued runs it itself.
* :class:`SingleFlight` — an in-flight table: an identical key joins the
  running flight instead of starting a second one.

:class:`repro.service.engine.CompileEngine` owns one queue, which its
:class:`repro.service.verify.VerifyEngine` shares, and each engine keeps an
in-flight table of its own.  The bound comes from
``CompileEngine(max_pending=...)`` or the ``REPRO_MAX_PENDING`` environment
variable, and the client identity from ``submit(..., client=...)``; the
HTTP front wires the pieces together (``--auth-token-file``,
``--rate-limit``, ``--max-pending``) and surfaces their counters on
``GET /v1/metrics`` (``rejected_total``, ``throttled_total``,
``queue_depth``).  See ``docs/serving.md`` for the end-to-end semantics and
``docs/tuning.md`` for sizing guidance.
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
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
from repro.service.executor import validate_worker_count

#: Environment variable that bounds the engine's job queue when
#: ``CompileEngine(max_pending=...)`` is not passed explicitly.
MAX_PENDING_ENV_VAR = "REPRO_MAX_PENDING"

#: Identity assigned to requests when authentication is disabled and the
#: transport provides none (e.g. direct library calls).
ANONYMOUS_IDENTITY = "anonymous"


class AdmissionError(ReproError):
    """Base class for admission-control rejections."""


class QueueFullError(AdmissionError):
    """The engine's bounded job queue rejected (shed) a job.

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
# The job queue
# ---------------------------------------------------------------------------
def settle(future: Future, job: Callable[[], object]) -> None:
    """Run ``job`` and land its result, or whatever it raises, in ``future``."""
    try:
        result = job()
    except BaseException as exc:
        future.set_exception(exc)
    else:
        future.set_result(result)


class JobQueue:
    """The jobs that have not started, and up to ``workers`` threads to run them.

    An idle worker takes the next job round-robin across client identities,
    FIFO within one, so one flooding client cannot starve the others.
    Workers are daemon threads named ``repro-compile-N``, started one per
    job that no idle worker is about to take.  With ``max_pending`` set, a
    job that would leave more than ``max_pending`` jobs queued beyond those
    free workers is shed with :class:`QueueFullError`.

    A worker that waits for a job still queued (:meth:`wait`) takes it out
    and runs it itself, so jobs that wait on other jobs cannot starve the
    workers.  Any other waiter blocks, so at most ``workers`` threads run
    queued jobs.
    """

    def __init__(
        self,
        workers: int,
        *,
        max_pending: int | None = None,
        retry_after: Callable[[], float] | None = None,
    ) -> None:
        self.workers = validate_worker_count(workers)
        self.max_pending = (
            None if max_pending is None else validate_max_pending(max_pending)
        )
        self._retry_after = retry_after
        # Re-entrant: an owner's finalizer may call shutdown() on a worker
        # that holds the lock, when a garbage collection runs there.
        self._lock = threading.RLock()
        # Idle workers wait for a job; workers in wait() for their flight.
        self._job_queued = threading.Condition(self._lock)
        self._flight_moved = threading.Condition(self._lock)
        self._local = threading.local()
        self._jobs: dict[Future, tuple[Callable[[], object], str]] = {}
        self._queues: dict[str, deque[Future]] = {}
        self._rotation: deque[str] = deque()
        self._threads: set[threading.Thread] = set()
        self._names = itertools.count()
        self._generation = 0  # bumped by shutdown: older workers drain and exit
        self._idle = 0
        self._inflight = 0
        self.admitted_total = 0
        self.rejected_total = 0

    def submit(
        self, future: Future, job: Callable[[], object], *, client: str = "", key: str = ""
    ) -> None:
        """Queue ``job`` to land its outcome in ``future``; never raises.

        A shed lands :class:`QueueFullError` (with a ``queue.shed`` event
        naming ``client`` and ``key``), and a worker thread that fails to
        start lands its error, so no waiter is left on a job that cannot run.
        """
        client = client or ANONYMOUS_IDENTITY
        error: BaseException | None = None
        with self._lock:
            waiting = len(self._jobs)
            free = self._idle + self.workers - len(self._threads)
            if self.max_pending is not None and waiting - free >= self.max_pending:
                self.rejected_total += 1
            else:
                try:
                    if waiting >= self._idle and len(self._threads) < self.workers:
                        self._start_worker_locked()
                except BaseException as exc:  # no worker, so nothing may queue
                    error = exc
                else:
                    self._jobs[future] = job, client
                    queue = self._queues.get(client)
                    if queue is None:
                        queue = self._queues[client] = deque()
                        self._rotation.append(client)
                    queue.append(future)
                    self.admitted_total += 1
                    self._job_queued.notify()
                    self._flight_moved.notify_all()
                    return
        if error is None:
            error = QueueFullError(
                f"job queue is full ({waiting - free} waiting beyond the free "
                f"workers, bound {self.max_pending}); resubmit later",
                retry_after=self._estimate_retry_after(),
            )
            emit_event(
                "queue.shed",
                identity=client,
                fingerprint=key,
                retry_after=round(error.retry_after, 3),
            )
        future.set_exception(error)

    def wait(self, future: Future) -> Future:
        """Return ``future`` for its ``result()``; a worker first runs or awaits it.

        On one of this queue's workers, a job still queued for ``future``,
        or queued while the worker waits, is taken out and run on this
        thread; else the worker waits until ``future`` settles.  On any
        other thread this returns at once, and ``future.result()`` blocks.
        """
        if not self.on_worker() or future.done():
            return future
        future.add_done_callback(self._wake)
        job = None
        with self._lock:
            while not future.done():
                if future in self._jobs:
                    job = self._take_locked(future)
                    break
                self._flight_moved.wait()
        if job is not None:
            settle(future, job)
            with self._lock:
                self._inflight -= 1
        return future

    def on_worker(self) -> bool:
        """Whether the calling thread is one of this queue's workers."""
        return getattr(self._local, "worker", False)

    def shutdown(self, wait: bool = True, *, cancel_pending: bool = False) -> None:
        """Let the workers run out the queue and exit; a later job starts new ones.

        ``cancel_pending`` first settles every queued job with
        ``CancelledError``; ``wait`` joins the workers.
        """
        with self._lock:
            self._generation += 1
            cancelled = list(self._jobs) if cancel_pending else []
            if cancel_pending:
                self._jobs.clear()
                self._queues.clear()
                self._rotation.clear()
            threads = list(self._threads)
            self._job_queued.notify_all()
        for future in cancelled:
            future.set_exception(CancelledError())
        if wait:
            for thread in threads:
                if thread is not threading.current_thread():
                    thread.join()

    def stats(self) -> dict:
        with self._lock:
            return {
                "max_pending": self.max_pending,
                "queue_depth": len(self._jobs),
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

    def _start_worker_locked(self) -> None:
        thread = threading.Thread(
            target=self._work,
            args=(self._generation,),
            name=f"repro-compile-{next(self._names)}",
            daemon=True,
        )
        thread.start()
        self._threads.add(thread)
        self._idle += 1

    def _work(self, generation: int) -> None:
        self._local.worker = True
        busy = False
        while True:
            with self._lock:
                if busy:
                    self._inflight -= 1
                    self._idle += 1
                while not self._jobs and generation == self._generation:
                    self._job_queued.wait()
                if not self._jobs:  # shut down, and the queue has run out
                    self._idle -= 1
                    self._threads.discard(threading.current_thread())
                    return
                # Round-robin: the head identity's oldest job, and that
                # identity to the back of the rotation.
                client = self._rotation[0]
                self._rotation.rotate(-1)
                future = self._queues[client][0]
                job = self._take_locked(future)
                self._idle -= 1
            busy = True
            settle(future, job)
            del future, job  # hold no outcome while idle

    def _take_locked(self, future: Future) -> Callable[[], object]:
        job, client = self._jobs.pop(future)
        queue = self._queues[client]
        queue.remove(future)
        if not queue:
            del self._queues[client]
            self._rotation.remove(client)
        self._inflight += 1
        return job

    def _wake(self, _future: Future) -> None:
        with self._lock:
            self._flight_moved.notify_all()


# ---------------------------------------------------------------------------
# The in-flight table
# ---------------------------------------------------------------------------
class SingleFlight:
    """One future per key that is being answered.

    :meth:`claim` joins a key's flight or owns a new one, whose future
    forgets the key when it settles.  The future is marked running before it
    is published, so a joiner that calls its ``cancel()`` cannot break the
    owner.
    """

    def __init__(self) -> None:
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
