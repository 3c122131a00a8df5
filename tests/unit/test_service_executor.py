"""Unit tests for the engine's workers and their wiring."""

import threading
import time
from concurrent.futures import CancelledError, Future

import pytest

from repro.api import CompileTarget
from repro.core.compiler import compile_pipeline
from repro.service import (
    CompileEngine,
    VerifyEngine,
    VerifyRequest,
    validate_worker_count,
)
from repro.service.admission import JobQueue
from repro.service.executor import default_executor_name

from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain, build_paper_example

W, H = TEST_WIDTH, TEST_HEIGHT


def _target(dag=None, **kwargs) -> CompileTarget:
    return CompileTarget(dag or build_chain(3), image_width=W, image_height=H, **kwargs)


class TestBackendSelection:
    def test_default_is_thread(self):
        assert default_executor_name() == "thread"
        engine = CompileEngine(workers=1)
        assert engine.executor_name == "thread"

    def test_describe_names_the_backend(self):
        engine = CompileEngine(workers=1)
        assert "executor=thread" in engine.describe()


class TestWorkerValidation:
    @pytest.mark.parametrize("bad", [0, -1, "0", "garbage", None, 2.5, ""])
    def test_garbage_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_worker_count(bad)

    def test_error_names_the_source(self):
        with pytest.raises(ValueError, match="--workers"):
            validate_worker_count("many", source="--workers")

    @pytest.mark.parametrize("good,expected", [(1, 1), ("8", 8), (3, 3)])
    def test_valid_counts_pass(self, good, expected):
        assert validate_worker_count(good) == expected

    def test_http_cli_rejects_bad_workers(self, capsys):
        from repro.service.http import main

        with pytest.raises(SystemExit):
            main(["--workers", "0", "--port", "0"])
        assert "--workers" in capsys.readouterr().err


def _track_threads(engine) -> list:
    """Record the name of every thread that runs one of ``engine``'s jobs."""
    seen = []
    original = engine._execute

    def tracking(target, fingerprint):
        seen.append(threading.current_thread().name)
        return original(target, fingerprint)

    engine._execute = tracking
    return seen


def _hold_workers(engine, release: threading.Event) -> None:
    """Occupy every one of ``engine``'s workers until ``release`` is set."""
    held = threading.Semaphore(0)
    for _ in range(engine.workers):
        future: Future = Future()
        future.set_running_or_notify_cancel()
        engine._queue.submit(future, lambda: held.release() or release.wait(30))
    for _ in range(engine.workers):
        assert held.acquire(timeout=10)


class TestThreadBackend:
    @pytest.fixture
    def engine(self):
        engine = CompileEngine(workers=2)
        yield engine
        engine.shutdown()

    def test_shutdown_then_resubmit_recreates_pool(self):
        with CompileEngine(workers=2) as engine:
            assert engine.submit_batch([_target()]).results[0].ok
            engine.shutdown()
            assert not engine._queue._threads
            assert engine.submit_batch([_target(build_chain(4))]).results[0].ok
            assert engine._queue._threads
        assert not engine._queue._threads  # __exit__ joined them

    def test_enter_returns_engine_and_exit_shuts_down(self):
        engine = CompileEngine(workers=2)
        with engine as entered:
            assert entered is engine
            assert engine.submit_batch([_target()]).results[0].ok
            assert engine._queue._threads
        assert not engine._queue._threads
        # The cache outlives the workers: a later submit is a memory hit.
        assert engine.submit(_target()).source == "memory"

    def test_pool_is_created_on_first_job(self, engine):
        assert not engine._queue._threads
        engine.submit_batch([_target()])
        assert engine._queue._threads

    def test_batch_jobs_run_on_pool_threads(self, engine):
        seen = _track_threads(engine)
        engine.submit_batch([_target(build_chain(n)) for n in (2, 3, 4)])
        assert len(seen) == 3
        assert all(name.startswith("repro-compile") for name in seen)

    def test_single_submit_runs_on_the_calling_thread(self, engine):
        seen = _track_threads(engine)
        assert engine.submit(_target()).source == "solver"
        assert seen == [threading.current_thread().name]
        assert not engine._queue._threads

    def test_batch_is_deterministic_and_ordered(self):
        """Results come back in submission order even when the workers
        finish the jobs in reverse."""
        targets = [_target(build_chain(n), label=str(n)) for n in (2, 3, 4)]
        turn = {target.fingerprint: index for index, target in enumerate(targets)}
        done = [threading.Event() for _ in targets]
        finished = []
        with CompileEngine(workers=len(targets)) as engine:
            original = engine._execute

            def finish_in_reverse(target, fingerprint):
                index = turn[fingerprint]
                if index + 1 < len(done):
                    assert done[index + 1].wait(timeout=30)
                try:
                    return original(target, fingerprint)
                finally:
                    finished.append(target.label)
                    done[index].set()

            engine._execute = finish_in_reverse
            batch = engine.submit_batch(targets)
        assert finished == ["4", "3", "2"]
        assert [r.target.label for r in batch.results] == ["2", "3", "4"]
        assert all(r.ok for r in batch.results)
        assert [r.source for r in batch.results] == ["solver"] * 3

    def test_escaping_exception_settles_the_future(self):
        def explode():
            raise RuntimeError("boom")

        queue = JobQueue(1)
        future: Future = Future()
        queue.submit(future, explode)
        with pytest.raises(RuntimeError, match="boom"):
            future.result(timeout=10)
        queue.shutdown()

    def test_single_submit_is_not_queued_behind_a_saturated_pool(self, engine):
        """A single submit on an unbounded engine runs on its caller's
        thread, so workers busy with other jobs do not delay it."""
        release = threading.Event()
        _hold_workers(engine, release)
        outcome: dict = {}
        caller = threading.Thread(
            target=lambda: outcome.update(result=engine.submit(_target())),
            daemon=True,
        )
        caller.start()
        try:
            caller.join(timeout=30)
            assert not caller.is_alive(), "single submit waited for a worker"
        finally:
            release.set()
        assert outcome["result"].ok and outcome["result"].source == "solver"

    def test_batch_matches_direct_compiles(self, engine):
        targets = [
            _target(build_paper_example(), label="imagen"),
            _target(build_paper_example(), generator="darkroom", label="dk"),
            _target(build_paper_example(), generator="soda", label="soda"),
        ]
        actual = engine.submit_batch(targets)
        assert [r.fingerprint for r in actual] == [t.fingerprint for t in targets]
        for ours, target in zip(actual.results, targets):
            theirs = compile_pipeline(target)
            assert ours.ok
            assert ours.accelerator.schedule.start_cycles == theirs.schedule.start_cycles
            assert (
                ours.accelerator.schedule.total_allocated_bits
                == theirs.schedule.total_allocated_bits
            )

    def test_shutdown_cancel_pending_cancels_a_pool_queued_batch(self, engine):
        """A batch queued behind busy workers raises CancelledError on
        shutdown(cancel_pending=True), and its job never runs."""
        release = threading.Event()
        _hold_workers(engine, release)
        outcome: dict = {}

        def run():
            try:
                outcome["batch"] = engine.submit_batch([_target()])
            except CancelledError as exc:
                outcome["error"] = exc

        waiter = threading.Thread(target=run, daemon=True)
        waiter.start()
        try:
            deadline = time.monotonic() + 10
            while engine.admission_stats()["queue_depth"] < 1:
                assert time.monotonic() < deadline, "the batch never queued"
                time.sleep(0.01)
            engine.shutdown(wait=False, cancel_pending=True)
            waiter.join(timeout=10)
            assert not waiter.is_alive(), "cancelled batch still waiting"
        finally:
            release.set()
        assert isinstance(outcome.get("error"), CancelledError)
        # The cancelled job never ran: no result was recorded.
        assert engine.metrics.requests == 0

    def test_in_batch_dedup_shares_one_future(self, engine):
        batch = engine.submit_batch([_target(), _target()])
        sources = sorted(r.source for r in batch.results)
        assert sources == ["deduplicated", "solver"]
        assert (
            batch.results[0].accelerator.schedule
            is batch.results[1].accelerator.schedule
        )

    def test_errors_captured_on_pool_threads(self, engine):
        batch = engine.submit_batch([_target().with_resolution(1, H), _target()])
        assert not batch.results[0].ok and batch.results[1].ok
        assert "SchedulingError" in batch.results[0].error

    def test_memory_cache_holds_pool_solves(self, engine):
        target = _target()
        engine.submit_batch([target])
        assert engine.submit(target).source == "memory"

    def test_result_target_is_the_submitters_object(self, engine):
        target = _target(label="mine")
        batch = engine.submit_batch([target])
        assert batch.results[0].target is target

    def test_pool_solves_persist_to_the_shared_volume(self, tmp_path):
        targets = [_target(build_chain(n)) for n in (2, 3, 4)]
        with CompileEngine(workers=2, cache_dir=tmp_path) as engine:
            engine.submit_batch(targets).raise_on_error()
        assert len(engine.cache.store) >= len(targets)
        # A fresh engine on the same volume (another server process, say)
        # answers every target from disk.
        with CompileEngine(workers=2, cache_dir=tmp_path) as fresh:
            batch = fresh.submit_batch(targets)
        assert [r.source for r in batch.results] == ["disk"] * len(targets)

    def test_pool_solves_respect_the_volumes_gc_bounds(self, tmp_path):
        from repro.service import CompileCache, DiskCacheStore

        store = DiskCacheStore(tmp_path, max_bytes=2_000)  # ~1-2 entries
        cache = CompileCache(store=store)
        targets = [_target(build_chain(n)) for n in (2, 3, 4, 5)]
        with CompileEngine(workers=2, cache=cache) as engine:
            engine.submit_batch(targets).raise_on_error()
        assert store.total_bytes() <= 2_000


class TestBackendStats:
    def test_stats_report_only_name_and_workers(self):
        with CompileEngine(workers=2) as engine:
            engine.submit_batch([_target()])
            assert engine.executor_stats() == {"executor": "thread", "workers": 2}

    def test_stats_create_no_pool(self):
        engine = CompileEngine(workers=3)
        assert engine.executor_stats() == {"executor": "thread", "workers": 3}
        assert not engine._queue._threads


class TestSubmitFailureRecovery:
    """Regression: a job that could not be handed to a worker used to leave
    the published placeholder future in ``_inflight`` forever, so every later
    submission of that fingerprint deduped against a dead future and hung."""

    def test_failed_submit_clears_inflight_and_unblocks_retries(
        self, broken_worker_start
    ):
        engine = CompileEngine(workers=2)
        target = _target()
        try:
            with pytest.raises(RuntimeError, match="can't start"):
                engine.submit_batch([target])
            assert not engine._flight._inflight  # the fingerprint is not poisoned
            broken_worker_start["on"] = False
            batch = engine.submit_batch([target])  # must not hang
            assert batch.results[0].ok
        finally:
            engine.shutdown()

    @pytest.mark.parametrize("max_pending", [None, 4])
    def test_failed_verify_submit_clears_inflight_and_unblocks_retries(
        self, broken_worker_start, max_pending
    ):
        """The verify twin, unbounded and bounded.  Each submit runs in a
        daemon thread, so a regression fails the test instead of hanging the
        suite."""
        engine = CompileEngine(workers=2, max_pending=max_pending)
        verify = VerifyEngine(engine)
        request = VerifyRequest(target=_target(), check="cycle")

        def submit() -> dict:
            outcome: dict = {}

            def run():
                try:
                    outcome["result"] = verify.submit(request)
                except Exception as exc:
                    outcome["error"] = exc

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive(), "verify submit hung"
            return outcome

        try:
            failed = submit()
            assert isinstance(failed.get("error"), RuntimeError)
            assert str(failed["error"]) == "can't start new thread"
            assert not verify._flight._inflight  # the fingerprint is not poisoned
            broken_worker_start["on"] = False
            retried = submit()["result"]
            assert retried.source == "verified" and retried.passed
        finally:
            engine.shutdown()


class TestSweepExecutorWiring:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_sweep_matches_serial(self, workers):
        from repro.dse.sweep import sweep_memory_configurations

        serial = sweep_memory_configurations(_target(build_paper_example()))
        with CompileEngine(workers=workers) as engine:
            fanned = sweep_memory_configurations(
                _target(build_paper_example()), engine=engine
            )
        assert [p.label for p in fanned] == [p.label for p in serial]
        assert [p.area_mm2 for p in fanned] == [p.area_mm2 for p in serial]
        assert [p.power_mw for p in fanned] == [p.power_mw for p in serial]

    def test_sweep_uses_the_engines_backend(self):
        """The baseline compiles on the caller's thread; every configuration
        it fans out runs on the engine's workers."""
        from repro.dse.sweep import sweep_memory_configurations

        with CompileEngine(workers=2) as engine:
            seen = _track_threads(engine)
            points = sweep_memory_configurations(
                _target(build_paper_example()), engine=engine
            )
        assert points and all(p.area_mm2 > 0 for p in points)
        assert seen[0] == threading.current_thread().name
        assert len(seen) > 1
        assert all(name.startswith("repro-compile") for name in seen[1:])
