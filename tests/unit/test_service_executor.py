"""Unit tests for the pluggable execution backends and engine wiring."""

import threading
from concurrent.futures import CancelledError, Future

import pytest

from repro.api import CompileTarget
from repro.service import (
    CompileEngine,
    EXECUTOR_NAMES,
    InlineExecutor,
    ThreadExecutor,
    VerifyEngine,
    VerifyRequest,
    default_executor_name,
    validate_worker_count,
)
from repro.service.executor import relay_future

from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain, build_paper_example

W, H = TEST_WIDTH, TEST_HEIGHT


def _target(dag=None, **kwargs) -> CompileTarget:
    return CompileTarget(dag or build_chain(3), image_width=W, image_height=H, **kwargs)


class TestBackendSelection:
    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert default_executor_name() == "thread"
        engine = CompileEngine(workers=1)
        assert engine.executor_name == "thread"

    def test_backend_names(self):
        assert EXECUTOR_NAMES == ("inline", "thread")

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_env_selects_backend(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_EXECUTOR", name)
        engine = CompileEngine(workers=1)
        assert engine.executor_name == name
        engine.shutdown()

    def test_explicit_executor_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        engine = CompileEngine(workers=1, executor="inline")
        assert engine.executor_name == "inline"

    # "threads" is a typo; the rest name backends that no longer exist, so a
    # stale deployment setting fails loudly too.
    @pytest.mark.parametrize(
        "name",
        ["threads", "process", *(f"{mode}:auto" for mode in ("process", "thread"))],
    )
    def test_invalid_env_rejected(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_EXECUTOR", name)
        with pytest.raises(ValueError, match="REPRO_EXECUTOR"):
            default_executor_name()
        with pytest.raises(ValueError, match="REPRO_EXECUTOR"):
            CompileEngine(workers=1)

    def test_invalid_executor_argument_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            CompileEngine(workers=1, executor="fork-bomb")

    def test_backend_instance_is_used_verbatim(self):
        backend = InlineExecutor()
        engine = CompileEngine(workers=4, executor=backend)
        assert engine._flight.executor is backend
        assert engine.executor_name == "inline"

    def test_describe_names_the_backend(self):
        engine = CompileEngine(workers=1, executor="inline")
        assert "executor=inline" in engine.describe()


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

    def test_thread_backend_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            ThreadExecutor(0)

    def test_http_cli_rejects_bad_workers(self, capsys):
        from repro.service.http import main

        with pytest.raises(SystemExit):
            main(["--workers", "0", "--port", "0"])
        assert "--workers" in capsys.readouterr().err


class TestInlineBackend:
    def test_batch_is_deterministic_and_ordered(self):
        engine = CompileEngine(executor="inline")
        targets = [_target(build_chain(n), label=str(n)) for n in (2, 3, 4)]
        batch = engine.submit_batch(targets)
        assert [r.target.label for r in batch.results] == ["2", "3", "4"]
        assert all(r.ok for r in batch.results)
        assert [r.source for r in batch.results] == ["solver"] * 3

    def test_no_threads_involved(self):
        import threading

        seen = []
        engine = CompileEngine(executor="inline")
        original = engine._execute

        def tracking(target, fingerprint):
            seen.append(threading.current_thread())
            return original(target, fingerprint)

        engine._execute = tracking
        engine.submit_batch([_target()])
        assert seen == [threading.main_thread()]

    def test_errors_still_captured_per_item(self):
        engine = CompileEngine(executor="inline")
        batch = engine.submit_batch([_target().with_resolution(1, H), _target()])
        assert not batch.results[0].ok and batch.results[1].ok

    def test_escaping_exception_settles_the_future(self):
        def explode(target, fingerprint):
            raise RuntimeError("boom")

        future = InlineExecutor().submit(explode, _target(), "fp")
        assert future.done()
        with pytest.raises(RuntimeError, match="boom"):
            future.result()


def _track_threads(engine) -> list:
    """Record the name of every thread that runs one of ``engine``'s jobs."""
    seen = []
    original = engine._execute

    def tracking(target, fingerprint):
        seen.append(threading.current_thread().name)
        return original(target, fingerprint)

    engine._execute = tracking
    return seen


class TestThreadBackend:
    @pytest.fixture
    def engine(self):
        engine = CompileEngine(workers=2, executor="thread")
        yield engine
        engine.shutdown()

    def test_shutdown_then_resubmit_recreates_pool(self):
        with CompileEngine(workers=2, executor="thread") as engine:
            assert engine.submit_batch([_target()]).results[0].ok
            engine.shutdown()
            assert engine._flight.executor._pool is None
            assert engine.submit_batch([_target(build_chain(4))]).results[0].ok

    def test_pool_is_created_on_first_job(self, engine):
        assert engine._flight.executor._pool is None
        engine.submit_batch([_target()])
        assert engine._flight.executor._pool is not None

    def test_batch_jobs_run_on_pool_threads(self, engine):
        seen = _track_threads(engine)
        engine.submit_batch([_target(build_chain(n)) for n in (2, 3, 4)])
        assert len(seen) == 3
        assert all(name.startswith("repro-compile") for name in seen)

    def test_single_submit_runs_on_the_calling_thread(self, engine):
        seen = _track_threads(engine)
        assert engine.submit(_target()).source == "solver"
        assert seen == [threading.current_thread().name]
        assert engine._flight.executor._pool is None

    def test_batch_matches_inline_backend(self, engine):
        targets = [
            _target(build_paper_example(), label="imagen"),
            _target(build_paper_example(), generator="darkroom", label="dk"),
            _target(build_paper_example(), generator="soda", label="soda"),
        ]
        expected = CompileEngine(executor="inline").submit_batch(targets)
        actual = engine.submit_batch(targets)
        assert [r.fingerprint for r in actual] == [r.fingerprint for r in expected]
        for ours, theirs in zip(actual.results, expected.results):
            assert ours.ok and theirs.ok
            assert (
                ours.accelerator.schedule.start_cycles
                == theirs.accelerator.schedule.start_cycles
            )
            assert (
                ours.accelerator.schedule.total_allocated_bits
                == theirs.accelerator.schedule.total_allocated_bits
            )

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
        with CompileEngine(workers=2, executor="thread", cache_dir=tmp_path) as engine:
            engine.submit_batch(targets).raise_on_error()
        assert len(engine.cache.store) >= len(targets)
        # A fresh engine on the same volume (another server process, say)
        # answers every target from disk.
        with CompileEngine(workers=2, executor="thread", cache_dir=tmp_path) as fresh:
            batch = fresh.submit_batch(targets)
        assert [r.source for r in batch.results] == ["disk"] * len(targets)

    def test_pool_solves_respect_the_volumes_gc_bounds(self, tmp_path):
        from repro.service import CompileCache, DiskCacheStore

        store = DiskCacheStore(tmp_path, max_bytes=2_000)  # ~1-2 entries
        cache = CompileCache(store=store)
        targets = [_target(build_chain(n)) for n in (2, 3, 4, 5)]
        with CompileEngine(workers=2, executor="thread", cache=cache) as engine:
            engine.submit_batch(targets).raise_on_error()
        assert store.total_bytes() <= 2_000


class TestBackendStats:
    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_stats_report_only_name_and_workers(self, name):
        with CompileEngine(workers=2, executor=name) as engine:
            engine.submit_batch([_target()])
            expected_workers = 1 if name == "inline" else 2
            assert engine.executor_stats() == {
                "executor": name,
                "workers": expected_workers,
            }


def _running_future() -> Future:
    future: Future = Future()
    future.set_running_or_notify_cancel()
    return future


class TestRelayFuture:
    def test_result_is_copied(self):
        source, destination = Future(), _running_future()
        source.set_result("compiled")
        relay_future(source, destination)
        assert destination.result() == "compiled"

    def test_exception_is_copied(self):
        source, destination = Future(), _running_future()
        error = RuntimeError("solver crashed")
        source.set_exception(error)
        relay_future(source, destination)
        assert destination.exception() is error

    def test_cancellation_arrives_as_an_exception(self):
        source, destination = Future(), _running_future()
        source.cancel()
        relay_future(source, destination)
        assert not destination.cancelled()
        assert isinstance(destination.exception(), CancelledError)


class TestSubmitFailureRecovery:
    """Regression: a backend whose ``submit`` raises used to leave the
    published placeholder future in ``_inflight`` forever, so every later
    submission of that fingerprint deduped against a dead future and hung."""

    class _BrokenBackend(InlineExecutor):
        def __init__(self):
            super().__init__()
            self.broken = True

        def submit(self, run_local, target, fingerprint):
            if self.broken:
                raise RuntimeError("pool is broken")
            return super().submit(run_local, target, fingerprint)

    def test_failed_submit_clears_inflight_and_unblocks_retries(self):
        backend = self._BrokenBackend()
        engine = CompileEngine(executor=backend)
        target = _target()
        with pytest.raises(RuntimeError, match="pool is broken"):
            engine.submit_batch([target])
        assert not engine._flight._inflight  # the fingerprint is not poisoned
        backend.broken = False
        batch = engine.submit_batch([target])  # must not hang
        assert batch.results[0].ok

    @pytest.mark.parametrize("max_pending", [None, 4])
    def test_failed_verify_submit_clears_inflight_and_unblocks_retries(
        self, max_pending
    ):
        """The verify twin, unbounded and through the admission queue.  Each
        submit runs in a daemon thread, so a regression fails the test
        instead of hanging the suite."""
        backend = self._BrokenBackend()
        engine = CompileEngine(executor=backend, max_pending=max_pending)
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

        failed = submit()
        assert isinstance(failed.get("error"), RuntimeError)
        assert str(failed["error"]) == "pool is broken"
        assert not verify._flight._inflight  # the fingerprint is not poisoned
        backend.broken = False
        retried = submit()["result"]
        assert retried.source == "verified" and retried.passed


class TestSweepExecutorWiring:
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_engine_sweep_matches_serial(self, executor):
        from repro.dse.sweep import sweep_memory_configurations

        serial = sweep_memory_configurations(_target(build_paper_example()))
        with CompileEngine(workers=2, executor=executor) as engine:
            fanned = sweep_memory_configurations(
                _target(build_paper_example()), engine=engine
            )
        assert [p.label for p in fanned] == [p.label for p in serial]
        assert [p.area_mm2 for p in fanned] == [p.area_mm2 for p in serial]
        assert [p.power_mw for p in fanned] == [p.power_mw for p in serial]

    def test_sweep_uses_the_engines_backend(self):
        engine = CompileEngine(workers=2, executor="inline")
        from repro.dse.sweep import sweep_memory_configurations

        points = sweep_memory_configurations(_target(build_paper_example()), engine=engine)
        assert points and all(p.area_mm2 > 0 for p in points)
