"""Unit tests for the admission-control layer.

Covers the edge cases: expired/garbage tokens, burst-then-refill timing,
queue-full shedding, and round-robin fairness under two competing
identities.  Timing-sensitive pieces (rate buckets) use injected fake clocks;
saturation tests gate the solver on events so nothing here depends on real
solve latency.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from concurrent.futures import CancelledError, Future
from pathlib import Path

import pytest

import repro.service.engine as engine_module
from repro.api import CompileTarget
from repro.service import CompileEngine
from repro.service.admission import (
    MAX_PENDING_ENV_VAR,
    JobQueue,
    QueueFullError,
    RateLimiter,
    SingleFlight,
    TokenAuthenticator,
    parse_rate_limit,
    parse_token_line,
    settle,
    validate_max_pending,
)
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
# The job queue (direct), on gated jobs
# ---------------------------------------------------------------------------
def _running() -> Future:
    future: Future = Future()
    future.set_running_or_notify_cancel()
    return future


def _hold(queue: JobQueue, gate: threading.Event) -> Future:
    """Occupy a 1-worker queue's worker until ``gate`` is set."""
    held = threading.Event()
    future = _running()
    queue.submit(future, lambda: held.set() or gate.wait(30), client="hold")
    assert held.wait(10)
    return future


def _recorded(queue: JobQueue, order: list, name: str, client: str = "") -> Future:
    """Queue a job that appends ``name`` to ``order`` when it runs."""
    future = _running()
    queue.submit(future, lambda: order.append(name) or name, client=client, key=name)
    return future


@pytest.fixture
def gate():
    gate = threading.Event()
    yield gate
    gate.set()


class TestJobQueue:
    def test_shed_raises_queue_full_with_retry_after(self, gate):
        queue = JobQueue(1, max_pending=1, retry_after=lambda: 2.5)
        order: list = []
        _hold(queue, gate)
        waiting = _recorded(queue, order, "waiting")  # fills the queue
        excess = _recorded(queue, order, "excess")
        shed = excess.exception(timeout=0)
        assert isinstance(shed, QueueFullError)
        assert shed.retry_after == pytest.approx(2.5)
        assert queue.stats()["rejected_total"] == 1
        assert queue.stats()["queue_depth"] == 1
        gate.set()
        assert waiting.result(timeout=10) == "waiting"
        assert order == ["waiting"]
        queue.shutdown()

    def test_round_robin_fairness_between_two_identities(self, gate):
        """A flooding client's backlog drains interleaved with the other
        client's, not ahead of it."""
        queue = JobQueue(1)
        order: list = []
        _hold(queue, gate)
        # alice floods 4; bob submits 2 afterwards.
        futures = [_recorded(queue, order, f"alice-{i}", "alice") for i in range(4)]
        futures += [_recorded(queue, order, f"bob-{i}", "bob") for i in range(2)]
        gate.set()
        for future in futures:
            future.result(timeout=10)
        assert order == ["alice-0", "bob-0", "alice-1", "bob-1", "alice-2", "alice-3"]
        queue.shutdown()

    def test_within_one_identity_fifo_order_is_preserved(self, gate):
        queue = JobQueue(1)
        order: list = []
        _hold(queue, gate)
        futures = [_recorded(queue, order, f"job-{i}", "alice") for i in range(4)]
        gate.set()
        for future in futures:
            future.result(timeout=10)
        assert order == [f"job-{i}" for i in range(4)]
        queue.shutdown()

    def test_a_worker_that_fails_to_start_lands_its_error(self, broken_worker_start):
        queue = JobQueue(1, max_pending=4)
        order: list = []
        failed = _recorded(queue, order, "first")
        with pytest.raises(RuntimeError, match="can't start"):
            failed.result(timeout=0)
        assert queue.stats()["queue_depth"] == 0  # nothing queued without a worker
        broken_worker_start["on"] = False
        assert _recorded(queue, order, "after").result(timeout=10) == "after"
        assert order == ["after"]
        queue.shutdown()

    def test_a_failed_worker_start_takes_no_slot_of_the_bound(
        self, broken_worker_start, gate
    ):
        queue = JobQueue(1, max_pending=1)
        order: list = []
        for name in ("first", "second"):
            with pytest.raises(RuntimeError, match="can't start"):
                _recorded(queue, order, name).result(timeout=0)
        assert (queue.stats()["admitted_total"], queue.stats()["rejected_total"]) == (0, 0)
        broken_worker_start["on"] = False
        _hold(queue, gate)
        waiting = _recorded(queue, order, "waiting")  # the bound's one slot
        assert isinstance(_recorded(queue, order, "excess").exception(timeout=0), QueueFullError)
        gate.set()
        assert waiting.result(timeout=10) == "waiting"
        assert order == ["waiting"]
        queue.shutdown()

    def test_never_starts_more_workers_than_its_count(self, gate):
        """Five held jobs on a 2-worker queue: two run, on two
        ``repro-compile`` threads, and three wait for a free worker."""
        queue = JobQueue(2)
        entered = threading.Semaphore(0)
        runners = []

        def held():
            runners.append(threading.current_thread())
            entered.release()
            return gate.wait(30)

        futures = []
        for _ in range(5):
            futures.append(_running())
            queue.submit(futures[-1], held)
        for _ in range(2):
            assert entered.acquire(timeout=10)
        assert len(queue._threads) == 2
        assert (queue.stats()["inflight"], queue.stats()["queue_depth"]) == (2, 3)
        gate.set()
        assert all(future.result(timeout=10) for future in futures)
        assert set(runners) == queue._threads
        assert all(runner.name.startswith("repro-compile") for runner in runners)
        queue.shutdown()

    def test_a_job_that_raises_leaves_its_worker_running(self):
        """Even a ``BaseException`` lands in the job's future; the worker
        lives on and runs the next job."""
        queue = JobQueue(1)

        def leave():
            raise SystemExit("a job asked to exit")

        failed = _running()
        queue.submit(failed, leave)
        assert isinstance(failed.exception(timeout=10), SystemExit)
        (worker,) = queue._threads
        after = _running()
        queue.submit(after, threading.current_thread)
        assert after.result(timeout=10) is worker
        queue.shutdown()

    def test_cancel_pending_settles_a_queued_job_and_a_later_one_runs(self, gate):
        """A queued job cancelled by ``shutdown(cancel_pending=True)`` never
        runs: its running future is not ``cancelled()`` but carries
        ``CancelledError``.  The queue takes jobs again afterwards."""
        queue = JobQueue(1)
        order: list = []
        held = _hold(queue, gate)
        waiting = _recorded(queue, order, "waiting")
        queue.shutdown(wait=False, cancel_pending=True)
        assert not waiting.cancelled()
        assert isinstance(waiting.exception(timeout=0), CancelledError)
        gate.set()
        assert held.result(timeout=10) is True
        assert _recorded(queue, order, "later").result(timeout=10) == "later"
        assert order == ["later"]
        queue.shutdown()

    @pytest.mark.parametrize("queued", ["before", "while"])
    def test_a_waiting_worker_runs_the_queued_job_on_its_own_thread(self, queued):
        """The only worker waits for a job queued behind its own, before or
        while it waits, and runs that job itself."""
        queue = JobQueue(1)
        inner = _running()
        threads = []

        def job():
            threads.append(threading.current_thread())

        def outer():
            if queued == "before":
                queue.submit(inner, job)
            queue.wait(inner).result()
            return threading.current_thread()

        future = _running()
        queue.submit(future, outer)
        if queued == "while":
            assert _wait_for(lambda: queue._flight_moved._waiters)  # it waits
            queue.submit(inner, job)
        runner = future.result(timeout=10)
        assert threads == [runner]
        assert runner.name.startswith("repro-compile")
        assert queue.stats()["queue_depth"] == 0
        queue.shutdown()

    @pytest.mark.parametrize("max_pending", [None, 8])
    def test_stress_clients_and_nested_waits(self, max_pending):
        """Four workers on a tiny switch interval, six clients, and jobs that
        queue a job and wait for it: every future settles, no job runs
        twice, every submit is admitted or shed, and the queue comes to rest."""
        queue = JobQueue(4, max_pending=max_pending)
        lock = threading.Lock()
        runs: dict[str, int] = {}
        submits = [0]

        def submit(name, job, client):
            future = _running()
            with lock:
                submits[0] += 1
            queue.submit(future, job, client=client, key=name)
            return future

        def leaf(name):
            with lock:
                runs[name] = runs.get(name, 0) + 1
            return name

        def nested(name, client):
            leaf(name)
            inner = submit(name + "/inner", lambda: leaf(name + "/inner"), client)
            return queue.wait(inner).result()

        futures: dict[str, Future] = {}

        def client(label):
            for index in range(40):
                name = f"{label}-{index}"
                job = (lambda n=name: nested(n, label)) if index % 2 else (lambda n=name: leaf(n))
                futures[name] = submit(name, job, label)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [threading.Thread(target=client, args=(label,)) for label in "abcdef"]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=30)
                assert not thread.is_alive()
            for name, future in futures.items():
                error = future.exception(timeout=30)
                if error is None:
                    assert runs[name] == 1
                else:
                    assert isinstance(error, QueueFullError) and max_pending is not None
        finally:
            sys.setswitchinterval(interval)
            queue.shutdown()
        assert all(count == 1 for count in runs.values())
        stats = queue.stats()
        assert stats["admitted_total"] + stats["rejected_total"] == submits[0]
        assert (stats["queue_depth"], stats["inflight"], stats["queued_clients"]) == (0, 0, 0)
        if max_pending is None:
            assert len(runs) == 6 * 40 + 6 * 20

    def test_stats_share_one_schema(self):
        unbounded, bounded = JobQueue(1), JobQueue(1, max_pending=3)
        assert unbounded.stats().keys() == bounded.stats().keys()
        assert unbounded.stats()["max_pending"] is None
        assert bounded.stats()["max_pending"] == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="max_pending"):
            JobQueue(1, max_pending=0)
        with pytest.raises(ValueError, match="workers"):
            JobQueue(0)
        with pytest.raises(ValueError, match="REPRO_MAX_PENDING"):
            validate_max_pending("lots", source=MAX_PENDING_ENV_VAR)


# ---------------------------------------------------------------------------
# The in-flight table (direct)
# ---------------------------------------------------------------------------
class TestSingleFlight:
    def test_identical_key_joins_until_the_flight_settles(self):
        flight = SingleFlight()
        recalled, owned, owner = flight.claim("k")
        assert (recalled, owner) == (None, True)
        _, joined, joiner_owns = flight.claim("k")
        assert joined is owned and not joiner_owns
        # The placeholder is running: a joiner giving up cannot cancel it.
        assert not joined.cancel()
        settle(owned, lambda: "answer")
        assert owned.result(timeout=0) == "answer"
        _, fresh, fresh_owner = flight.claim("k")
        assert fresh_owner and fresh is not owned

    def test_recall_answers_under_the_claim_lock(self):
        flight = SingleFlight()
        assert flight.claim("k", recall=lambda: "remembered") == ("remembered", None, False)
        assert flight._inflight == {}
        recalled, future, owner = flight.claim("k", recall=lambda: None)
        assert recalled is None and owner and flight._inflight == {"k": future}

    @pytest.mark.parametrize("max_pending", [None, 2])
    def test_a_failed_worker_start_settles_and_forgets_the_flight(
        self, broken_worker_start, max_pending
    ):
        flight, queue = SingleFlight(), JobQueue(1, max_pending=max_pending)
        _, future, _ = flight.claim("k")
        queue.submit(future, lambda: "answer", key="k")
        with pytest.raises(RuntimeError, match="can't start"):
            future.result(timeout=0)
        assert flight._inflight == {}
        broken_worker_start["on"] = False
        _, retry, owner = flight.claim("k")
        assert owner and retry is not future
        queue.submit(retry, lambda: "answer", key="k")
        assert retry.result(timeout=10) == "answer"
        queue.shutdown()

    def test_full_queue_sheds_into_the_flight(self, gate):
        flight, queue = SingleFlight(), JobQueue(1, max_pending=1, retry_after=lambda: 2.5)
        order: list = []
        _hold(queue, gate)
        futures = {}
        for key in ("waiting", "excess"):
            _, futures[key], _ = flight.claim(key)
            queue.submit(futures[key], lambda key=key: order.append(key), key=key)
        shed = futures["excess"].exception(timeout=0)
        assert isinstance(shed, QueueFullError)
        assert shed.retry_after == pytest.approx(2.5)
        assert "excess" not in flight._inflight
        assert queue.stats()["rejected_total"] == 1
        # A freed worker runs the waiting flight.
        gate.set()
        futures["waiting"].result(timeout=10)
        assert order == ["waiting"]
        queue.shutdown()

    def test_shutdown_cancel_pending_settles_queued_flights(self, gate):
        flight, queue = SingleFlight(), JobQueue(1, max_pending=2)
        _, running, _ = flight.claim("running")
        held = threading.Event()
        queue.submit(running, lambda: held.set() or gate.wait(30), key="running")
        assert held.wait(10)
        _, waiting, _ = flight.claim("waiting")
        queue.submit(waiting, lambda: "never", key="waiting")
        queue.shutdown(wait=False, cancel_pending=True)
        with pytest.raises(CancelledError):
            waiting.result(timeout=0)
        assert "waiting" not in flight._inflight
        assert not running.done()  # a started job runs to the end
        gate.set()
        assert running.result(timeout=10) is True


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


def _running_and_waiting(engine) -> tuple[int, int]:
    """``inflight`` and ``queue_depth``: a wait on ``queue_depth`` alone also
    counts a job that an idle worker is about to take."""
    stats = engine.admission_stats()
    return stats["inflight"], stats["queue_depth"]


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
                for i in range(5)  # 1 running + 4 queued
            ]
            assert _wait_for(lambda: _running_and_waiting(engine) == (1, 4))
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

    def test_admission_and_a_two_thread_pool_compose(self, slow_solver):
        """max_pending bounds the wait queue while both workers run jobs."""
        engine = CompileEngine(workers=2, max_pending=2)
        outcomes: list = []
        try:
            threads = [
                _submit_in_thread(engine, _target(i), "a", outcomes) for i in range(4)
            ]
            assert _wait_for(lambda: _running_and_waiting(engine) == (2, 2))
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
        """Jobs still waiting in the queue must resolve with CancelledError
        on shutdown(cancel_pending=True), not run on workers started
        afterwards."""
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
            assert _wait_for(lambda: _running_and_waiting(engine) == (1, 2))
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

    def test_a_burst_of_workers_plus_max_pending_sheds_none(self, slow_solver):
        """Jobs that free workers are about to take do not count against the
        bound: an idle engine admits workers + max_pending gated submits at
        once, and sheds the next."""
        engine = CompileEngine(workers=2, max_pending=2)
        outcomes: list = []
        try:
            threads = [
                _submit_in_thread(engine, _target(i), "a", outcomes) for i in range(4)
            ]
            assert _wait_for(lambda: engine.admission_stats()["admitted_total"] == 4)
            assert engine.admission_stats()["rejected_total"] == 0
            with pytest.raises(QueueFullError):
                engine.submit(_target(4), client="a")
            assert engine.admission_stats()["rejected_total"] == 1
            slow_solver.set()
            for thread in threads:
                thread.join(timeout=30)
            assert len(outcomes) == 4
            assert all(getattr(result, "ok", False) for result in outcomes)
        finally:
            slow_solver.set()
            engine.shutdown()

    def test_an_unbounded_engine_counts_its_queue(self, slow_solver):
        engine = CompileEngine(workers=1)
        batches: list = []
        batch = threading.Thread(
            target=lambda: batches.append(
                engine.submit_batch([_target(i) for i in range(3)])
            )
        )
        batch.start()
        try:
            assert _wait_for(lambda: _running_and_waiting(engine) == (1, 2))
            assert engine.admission_stats()["max_pending"] is None
            assert engine.admission_stats()["queued_clients"] == 1
            slow_solver.set()
            batch.join(timeout=30)
        finally:
            slow_solver.set()
            engine.shutdown()
        assert all(result.ok for result in batches[0].results)
        stats = engine.admission_stats()
        assert (stats["admitted_total"], stats["queue_depth"], stats["inflight"]) == (3, 0, 0)

    @pytest.mark.parametrize("stop", ["shutdown", "drop"])
    def test_no_worker_outlives_its_engine(self, stop):
        before = set(threading.enumerate())
        engine = CompileEngine(workers=2)
        assert all(r.ok for r in engine.submit_batch([_target(i) for i in range(3)]))
        spawned = [
            thread
            for thread in threading.enumerate()
            if thread not in before and thread.name.startswith("repro-compile")
        ]
        assert spawned
        if stop == "shutdown":
            engine.shutdown(wait=True)  # joins them
        else:
            del engine  # never shut down: its finalizer lets them exit
            for thread in spawned:
                thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in spawned)

# ---------------------------------------------------------------------------
# Verify bodies that wait on queued compiles
# ---------------------------------------------------------------------------
#: Holds a cold ``cycle`` verify body on every worker, queues the target's
#: compile with ``submit_batch`` behind them, then releases the verifies,
#: which join that compile.  Run in a child interpreter: a hang would also
#: stall this interpreter at exit on stuck pool threads.
_VERIFIES_JOIN_A_QUEUED_COMPILE = """
import sys, threading
from repro.api import CompileTarget
from repro.service import CompileEngine, VerifyEngine, VerifyRequest
from tests.conftest import build_chain

workers = int(sys.argv[1])
max_pending = None if sys.argv[2] == "None" else int(sys.argv[2])
engine = CompileEngine(workers=workers, max_pending=max_pending)
verify = VerifyEngine(engine)
target = CompileTarget(build_chain(3), image_width=32, image_height=24)
entered, release = threading.Semaphore(0), threading.Event()
body = verify._execute

def held(request, fingerprint):
    entered.release()
    release.wait()
    return body(request, fingerprint)

verify._execute = held
verdicts, batches = [], []
holders = [
    threading.Thread(target=lambda seed=seed: verdicts.append(
        verify.submit(VerifyRequest(target=target, check="cycle", seed=seed))
    ))
    for seed in range(workers)
]
for thread in holders:
    thread.start()
for _ in holders:
    entered.acquire()
batch = threading.Thread(target=lambda: batches.append(engine.submit_batch([target])))
batch.start()
while target.fingerprint not in engine._flight._inflight:
    pass
release.set()
for thread in holders + [batch]:
    thread.join()
print(all(verdict.passed for verdict in verdicts), batches[0].results[0].ok)
"""


@pytest.mark.parametrize("max_pending", [None, 2])
@pytest.mark.parametrize("workers", [1, 2])
def test_verify_bodies_on_every_worker_run_the_compile_they_join(workers, max_pending):
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), str(root), env.get("PYTHONPATH")])
    )
    try:
        completed = subprocess.run(
            [sys.executable, "-c", _VERIFIES_JOIN_A_QUEUED_COMPILE, str(workers), repr(max_pending)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("verify bodies joining a queued compile hung")
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["True", "True"]
