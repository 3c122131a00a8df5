"""Unit tests for the admission-control layer.

Covers the edge cases: expired/garbage tokens, burst-then-refill timing,
queue-full shedding, and round-robin fairness under two competing
identities.  Timing-sensitive pieces (rate buckets) use injected fake clocks;
saturation tests gate the solver on events so nothing here depends on real
solve latency.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError, Future

import pytest

import repro.service.engine as engine_module
from repro.api import CompileTarget
from repro.service import CompileEngine
from repro.service.admission import (
    MAX_PENDING_ENV_VAR,
    AdmissionQueue,
    QueueFullError,
    RateLimiter,
    SingleFlight,
    TokenAuthenticator,
    parse_rate_limit,
    parse_token_line,
    validate_max_pending,
)
from repro.service.executor import ExecutorBackend, ThreadExecutor
from repro.service.jobs import SOURCE_REJECTED

from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain

W, H = TEST_WIDTH, TEST_HEIGHT


def _target(index: int = 0) -> CompileTarget:
    # Distinct widths keep fingerprints cold across one test.
    return CompileTarget(build_chain(3), image_width=W + 2 * index, image_height=H)


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Token authentication
# ---------------------------------------------------------------------------
class TestTokenAuthenticator:
    def test_token_file_parsing(self, tmp_path):
        path = tmp_path / "tokens.txt"
        path.write_text(
            "# comment line\n"
            "\n"
            "bare-secret\n"
            "alice:alice-secret\n"
            "carol:carol-secret:expires=2000\n"
        )
        auth = TokenAuthenticator.from_file(path, clock=FakeClock(1000.0))
        assert len(auth) == 3
        assert auth.authenticate_token("alice-secret") == "alice"
        assert auth.authenticate_token("carol-secret") == "carol"
        # Bare tokens get a stable derived identity.
        derived = auth.authenticate_token("bare-secret")
        assert derived and derived.startswith("token-")

    def test_garbage_and_wrong_tokens_rejected(self, tmp_path):
        path = tmp_path / "tokens.txt"
        path.write_text("alice:alice-secret\n")
        auth = TokenAuthenticator.from_file(path)
        assert auth.authenticate_token("garbage") is None
        assert auth.authenticate_token("") is None
        assert auth.authenticate_token("alice-secret-") is None
        assert auth.authenticate_token("alice-secre") is None

    def test_expired_token_rejected_exactly_like_garbage(self, tmp_path):
        clock = FakeClock(1000.0)
        path = tmp_path / "tokens.txt"
        path.write_text("carol:carol-secret:expires=1500\n")
        auth = TokenAuthenticator.from_file(path, clock=clock)
        assert auth.authenticate_token("carol-secret") == "carol"
        clock.advance(500.0)  # now == expiry: expired
        assert auth.authenticate_token("carol-secret") is None

    def test_header_parsing_accepts_only_bearer(self, tmp_path):
        path = tmp_path / "tokens.txt"
        path.write_text("alice:alice-secret\n")
        auth = TokenAuthenticator.from_file(path)
        assert auth.authenticate_header("Bearer alice-secret") == "alice"
        assert auth.authenticate_header("bearer alice-secret") == "alice"
        assert auth.authenticate_header(None) is None
        assert auth.authenticate_header("") is None
        assert auth.authenticate_header("Basic alice-secret") is None
        assert auth.authenticate_header("alice-secret") is None
        assert auth.authenticate_header("Bearer ") is None

    def test_malformed_token_lines_fail_loudly(self):
        with pytest.raises(ValueError, match="expiry"):
            parse_token_line("a:b:expires=soon", lineno=3)
        with pytest.raises(ValueError, match="line 4"):
            parse_token_line("a:b:c:d", lineno=4)
        with pytest.raises(ValueError, match="empty token"):
            parse_token_line("alice:", lineno=5)

    def test_empty_token_file_rejected(self, tmp_path):
        path = tmp_path / "tokens.txt"
        path.write_text("# only comments\n")
        with pytest.raises(ValueError, match="no tokens"):
            TokenAuthenticator.from_file(path)


# ---------------------------------------------------------------------------
# Rate limiting
# ---------------------------------------------------------------------------
class TestRateLimiter:
    def test_burst_then_refill_timing(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=2.0, burst=3.0, clock=clock)
        assert all(limiter.admit("alice").allowed for _ in range(3))
        denied = limiter.admit("alice")
        assert not denied.allowed
        assert denied.retry_after == pytest.approx(0.5)  # 1 token at 2 rps
        clock.advance(0.25)  # half a token: still short
        assert not limiter.admit("alice").allowed
        clock.advance(0.3)
        assert limiter.admit("alice").allowed
        assert limiter.throttled_total == 2

    def test_bucket_caps_at_burst(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=10.0, burst=2.0, clock=clock)
        clock.advance(3600.0)  # an hour idle must not bank 36000 tokens
        assert limiter.admit("alice").allowed
        assert limiter.admit("alice").allowed
        assert not limiter.admit("alice").allowed

    def test_identities_have_independent_buckets(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=clock)
        assert limiter.admit("alice").allowed
        assert not limiter.admit("alice").allowed
        assert limiter.admit("bob").allowed  # bob's bucket untouched

    def test_batch_cost_charges_per_target(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=10.0, clock=clock)
        assert limiter.admit("alice", cost=8).allowed
        denied = limiter.admit("alice", cost=4)
        assert not denied.allowed
        assert denied.retry_after == pytest.approx(2.0)  # needs 2 more tokens

    def test_oversized_batch_admits_on_full_bucket_with_overdraft(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=4.0, clock=clock)
        assert limiter.admit("alice", cost=10).allowed  # full bucket pays
        # The overdraft (-6) delays everything after it.
        denied = limiter.admit("alice")
        assert not denied.allowed
        assert denied.retry_after == pytest.approx(7.0)  # -6 -> 1 at 1 rps

    def test_parse_rate_limit(self):
        assert parse_rate_limit("10:20") == (10.0, 20.0)
        assert parse_rate_limit("0.5:2") == (0.5, 2.0)
        assert parse_rate_limit("4") == (4.0, 4.0)
        for bad in ("", "a:b", "1:2:3", "-1:2", "0:5"):
            with pytest.raises(ValueError):
                parse_rate_limit(bad)


# ---------------------------------------------------------------------------
# The bounded fair queue (direct)
# ---------------------------------------------------------------------------
def _manual_dispatch(record: list, name: str):
    """A dispatch closure that records its order and hands back a settleable
    future (the test plays the role of the executor)."""
    future: Future = Future()
    future.set_running_or_notify_cancel()

    def dispatch():
        record.append((name, future))
        return future

    return dispatch


class TestAdmissionQueue:
    def test_shed_raises_queue_full_with_retry_after(self):
        queue = AdmissionQueue(1, max_pending=1, retry_after=lambda: 2.5)
        record: list = []
        queue.submit(_manual_dispatch(record, "running"))  # occupies the slot
        queue.submit(_manual_dispatch(record, "waiting"))  # fills the queue
        with pytest.raises(QueueFullError) as info:
            queue.submit(_manual_dispatch(record, "excess"))
        assert info.value.retry_after == pytest.approx(2.5)
        assert queue.stats()["rejected_total"] == 1
        assert queue.stats()["queue_depth"] == 1

    def test_round_robin_fairness_between_two_identities(self):
        """A flooding client's backlog drains interleaved with the other
        client's, not ahead of it."""
        queue = AdmissionQueue(1, max_pending=10)
        record: list = []
        queue.submit(_manual_dispatch(record, "gate"), client="alice")
        # alice floods 4 more; bob submits 2 afterwards.
        for index in range(4):
            queue.submit(_manual_dispatch(record, f"alice-{index}"), client="alice")
        for index in range(2):
            queue.submit(_manual_dispatch(record, f"bob-{index}"), client="bob")
        # Drain: settle each dispatched job, which pumps the next one.
        position = 0
        while position < len(record):
            record[position][1].set_result(None)
            position += 1
        order = [name for name, _ in record[1:]]
        assert order == ["alice-0", "bob-0", "alice-1", "bob-1", "alice-2", "alice-3"]

    def test_within_one_identity_fifo_order_is_preserved(self):
        queue = AdmissionQueue(1, max_pending=10)
        record: list = []
        for index in range(4):
            queue.submit(_manual_dispatch(record, f"job-{index}"), client="alice")
        position = 0
        while position < len(record):
            record[position][1].set_result(None)
            position += 1
        assert [name for name, _ in record] == [f"job-{index}" for index in range(4)]

    def test_failed_dispatch_frees_the_slot(self):
        queue = AdmissionQueue(1, max_pending=4)
        record: list = []

        def broken_dispatch():
            raise RuntimeError("executor exploded")

        queue.submit(broken_dispatch)
        # The slot must be free again: the next job dispatches immediately.
        queue.submit(_manual_dispatch(record, "after"))
        assert [name for name, _ in record] == ["after"]
        assert queue.stats()["inflight"] == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="max_pending"):
            AdmissionQueue(1, max_pending=0)
        with pytest.raises(ValueError, match="REPRO_MAX_PENDING"):
            validate_max_pending("lots", source=MAX_PENDING_ENV_VAR)


# ---------------------------------------------------------------------------
# The single-flight kernel (direct)
# ---------------------------------------------------------------------------
class ManualExecutor(ExecutorBackend):
    """A one-worker backend whose jobs the test settles by hand; ``broken``
    makes ``submit`` raise instead."""

    name = "manual"

    def __init__(self) -> None:
        super().__init__(1)
        self.jobs: list[tuple[str, Future]] = []
        self.broken = False

    def submit(self, run_local, target, fingerprint):
        if self.broken:
            raise RuntimeError("pool is broken")
        future: Future = Future()
        future.set_running_or_notify_cancel()
        self.jobs.append((fingerprint, future))
        return future


def _job(target, key):
    raise AssertionError("ManualExecutor never runs the job")


class TestSingleFlight:
    def test_identical_key_joins_until_the_flight_settles(self):
        flight = SingleFlight(ManualExecutor(), max_pending=None, retry_after=lambda: 1.0)
        recalled, owned, owner = flight.claim("k")
        assert (recalled, owner) == (None, True)
        _, joined, joiner_owns = flight.claim("k")
        assert joined is owned and not joiner_owns
        # The placeholder is running: a joiner giving up cannot cancel it.
        assert not joined.cancel()
        flight.dispatch(owned, _job, None, "k")
        flight.executor.jobs[0][1].set_result("answer")
        assert owned.result(timeout=0) == "answer"
        _, fresh, fresh_owner = flight.claim("k")
        assert fresh_owner and fresh is not owned

    def test_recall_answers_under_the_claim_lock(self):
        flight = SingleFlight(ManualExecutor(), max_pending=None, retry_after=lambda: 1.0)
        assert flight.claim("k", recall=lambda: "remembered") == ("remembered", None, False)
        assert flight._inflight == {}
        recalled, future, owner = flight.claim("k", recall=lambda: None)
        assert recalled is None and owner and flight._inflight == {"k": future}

    @pytest.mark.parametrize("max_pending", [None, 2])
    def test_failed_backend_submit_settles_and_forgets_the_flight(self, max_pending):
        executor = ManualExecutor()
        executor.broken = True
        flight = SingleFlight(executor, max_pending=max_pending, retry_after=lambda: 1.0)
        _, future, _ = flight.claim("k")
        flight.dispatch(future, _job, None, "k")
        with pytest.raises(RuntimeError, match="pool is broken"):
            future.result(timeout=0)
        assert flight._inflight == {}
        executor.broken = False
        _, retry, owner = flight.claim("k")
        assert owner and retry is not future
        flight.dispatch(retry, _job, None, "k")
        executor.jobs[0][1].set_result("answer")
        assert retry.result(timeout=0) == "answer"

    def test_full_queue_sheds_into_the_flight(self):
        flight = SingleFlight(ManualExecutor(), max_pending=1, retry_after=lambda: 2.5)
        futures = []
        for key in ("running", "waiting", "excess"):
            _, future, _ = flight.claim(key)
            flight.dispatch(future, _job, None, key)
            futures.append(future)
        assert [key for key, _ in flight.executor.jobs] == ["running"]
        shed = futures[2].exception(timeout=0)
        assert isinstance(shed, QueueFullError)
        assert shed.retry_after == pytest.approx(2.5)
        assert "excess" not in flight._inflight
        assert flight.admission_stats()["rejected_total"] == 1
        # A freed slot dispatches the waiting flight.
        flight.executor.jobs[0][1].set_result("first")
        assert [key for key, _ in flight.executor.jobs] == ["running", "waiting"]

    def test_shutdown_cancel_pending_settles_queued_flights(self):
        flight = SingleFlight(ManualExecutor(), max_pending=2, retry_after=lambda: 1.0)
        _, running, _ = flight.claim("running")
        flight.dispatch(running, _job, None, "running")
        _, waiting, _ = flight.claim("waiting")
        flight.dispatch(waiting, _job, None, "waiting")
        flight.shutdown(wait=False, cancel_pending=True)
        with pytest.raises(CancelledError):
            waiting.result(timeout=0)
        assert "waiting" not in flight._inflight
        assert not running.done()  # in-flight work is the backend's business

    def test_admission_stats_share_one_schema(self):
        unbounded = SingleFlight(ManualExecutor(), max_pending=None, retry_after=lambda: 1.0)
        bounded = SingleFlight(ManualExecutor(), max_pending=3, retry_after=lambda: 1.0)
        assert unbounded.admission_stats().keys() == bounded.admission_stats().keys()
        assert unbounded.admission_stats()["max_pending"] is None
        assert bounded.admission_stats()["max_pending"] == 3


# ---------------------------------------------------------------------------
# Engine integration: saturation, shedding, fairness counters
# ---------------------------------------------------------------------------
@pytest.fixture
def slow_solver(monkeypatch):
    """Gate every solve on an event so tests control engine saturation."""
    gate = threading.Event()
    real = engine_module.compile_pipeline

    def gated(target, cache=None):
        if not gate.wait(timeout=30):
            raise TimeoutError("slow_solver gate never opened")
        return real(target, cache=cache)

    monkeypatch.setattr(engine_module, "compile_pipeline", gated)
    return gate


def _submit_in_thread(engine, target, client, outcomes):
    def run():
        try:
            outcomes.append(engine.submit(target, client=client))
        except QueueFullError as exc:
            outcomes.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestEngineAdmission:
    def test_saturated_engine_sheds_excess_while_inflight_completes(self, slow_solver):
        """Acceptance: max_pending=4 + slow solves -> excess submits shed,
        admitted work still completes once the solver unblocks."""
        engine = CompileEngine(workers=1, max_pending=4)
        outcomes: list = []
        try:
            threads = [
                _submit_in_thread(engine, _target(i), "flood", outcomes)
                for i in range(5)  # 1 dispatched + 4 queued
            ]
            assert _wait_for(lambda: engine.admission_stats()["queue_depth"] == 4)
            with pytest.raises(QueueFullError):
                engine.submit(_target(5), client="flood")
            stats = engine.admission_stats()
            assert stats["rejected_total"] == 1
            assert stats["queue_depth"] == 4
            slow_solver.set()
            for thread in threads:
                thread.join(timeout=30)
            assert len(outcomes) == 5
            assert all(getattr(result, "ok", False) for result in outcomes)
            assert engine.admission_stats()["queue_depth"] == 0
        finally:
            slow_solver.set()
            engine.shutdown()

    def test_batch_degrades_shed_items_to_rejected_results(self, slow_solver):
        engine = CompileEngine(workers=1, max_pending=2)
        blocker_results: list = []
        try:
            blocker = _submit_in_thread(engine, _target(0), "other", blocker_results)
            assert _wait_for(lambda: engine.admission_stats()["inflight"] == 1)
            slow_solver.set()  # queued batch items may run as slots free
            batch = engine.submit_batch([_target(i) for i in range(1, 6)], client="bulk")
        finally:
            slow_solver.set()
            blocker.join(timeout=30)
            engine.shutdown()
        rejected = [r for r in batch.results if r.source == SOURCE_REJECTED]
        completed = [r for r in batch.results if r.ok]
        assert rejected and completed  # some shed, batch itself survived
        assert all(not r.ok and "queue is full" in r.error for r in rejected)
        assert engine.admission_stats()["rejected_total"] == len(rejected)

    def test_cache_answerable_submits_bypass_admission(self, slow_solver):
        slow_solver.set()
        engine = CompileEngine(workers=1, max_pending=1)
        try:
            target = _target(0)
            assert engine.submit(target, client="a").source == "solver"
            admitted = engine.admission_stats()["admitted_total"]
            assert engine.submit(target, client="a").source == "memory"
            # The warm repeat never touched the queue.
            assert engine.admission_stats()["admitted_total"] == admitted
        finally:
            engine.shutdown()

    def test_env_var_enables_admission(self, monkeypatch):
        monkeypatch.setenv(MAX_PENDING_ENV_VAR, "7")
        engine = CompileEngine(workers=1)
        try:
            assert engine.max_pending == 7
            assert engine.admission_stats()["max_pending"] == 7
        finally:
            engine.shutdown()
        monkeypatch.setenv(MAX_PENDING_ENV_VAR, "zero")
        with pytest.raises(ValueError, match=MAX_PENDING_ENV_VAR):
            CompileEngine(workers=1)

    def test_invalid_admission_settings_rejected(self):
        with pytest.raises(ValueError, match="max_pending"):
            CompileEngine(workers=1, max_pending=0)

    def test_width_follows_a_ready_made_backend_instance(self, slow_solver):
        """A passed-in backend's own fleet sizes the dispatch width — an
        8-worker pool behind a 1-worker engine default must still see
        3 concurrent dispatches, not 1."""
        engine = CompileEngine(
            workers=1, executor=ThreadExecutor(3), max_pending=4
        )
        outcomes: list = []
        try:
            threads = [
                _submit_in_thread(engine, _target(i), "a", outcomes) for i in range(3)
            ]
            assert _wait_for(lambda: engine.admission_stats()["inflight"] == 3)
            assert engine.admission_stats()["queue_depth"] == 0
            slow_solver.set()
            for thread in threads:
                thread.join(timeout=30)
            assert all(getattr(result, "ok", False) for result in outcomes)
        finally:
            slow_solver.set()
            engine.shutdown()

    def test_admission_and_a_two_thread_pool_compose(self, slow_solver):
        """max_pending bounds the wait queue while the pool runs width-many
        dispatches."""
        engine = CompileEngine(workers=2, max_pending=2)
        outcomes: list = []
        try:
            threads = [
                _submit_in_thread(engine, _target(i), "a", outcomes) for i in range(4)
            ]
            assert _wait_for(
                lambda: engine.admission_stats()["inflight"] == 2
                and engine.admission_stats()["queue_depth"] == 2
            )
            with pytest.raises(QueueFullError):
                engine.submit(_target(9), client="a")
            slow_solver.set()
            for thread in threads:
                thread.join(timeout=30)
            assert len(outcomes) == 4
            assert all(getattr(result, "ok", False) for result in outcomes)
            assert engine.executor_stats() == {"executor": "thread", "workers": 2}
        finally:
            slow_solver.set()
            engine.shutdown()

    def test_shutdown_cancel_pending_cancels_admission_queued_jobs(self, slow_solver):
        """Jobs still waiting in the admission queue must resolve with
        CancelledError on shutdown(cancel_pending=True), not get pumped into
        a transparently recreated pool afterwards."""
        engine = CompileEngine(workers=1, max_pending=2)
        outcomes: list = []

        def run(target):
            try:
                outcomes.append(engine.submit(target, client="a"))
            except CancelledError:
                outcomes.append("cancelled")

        threads = [
            threading.Thread(target=run, args=(_target(i),)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        try:
            assert _wait_for(lambda: engine.admission_stats()["queue_depth"] == 2)
            engine.shutdown(wait=False, cancel_pending=True)
            assert _wait_for(
                lambda: outcomes.count("cancelled") == 2
            ), f"queued submits not cancelled: {outcomes}"
            assert engine.admission_stats()["queue_depth"] == 0
            slow_solver.set()  # let the already-dispatched job finish
            for thread in threads:
                thread.join(timeout=30)
            assert outcomes.count("cancelled") == 2
        finally:
            slow_solver.set()
            engine.shutdown()
