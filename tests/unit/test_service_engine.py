"""Unit tests for the CompileEngine: caching, batching, dedup, DSE wiring."""

import threading
import time

import pytest

from repro.algorithms import build_algorithm
from repro.api import CompileTarget
from repro.core.compiler import compile_pipeline
from repro.core.scheduler import SchedulerOptions
from repro.dse.sweep import sweep_memory_configurations
from repro.errors import ReproError
from repro.service import (
    CompileCache,
    CompileEngine,
    CompileStatus,
)

from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain, build_paper_example

W, H = TEST_WIDTH, TEST_HEIGHT


@pytest.fixture
def engine():
    engine = CompileEngine(workers=2)
    yield engine
    engine.shutdown()


class TestSingleRequests:
    def test_compile_matches_direct_compile_pipeline(self, engine):
        dag = build_paper_example()
        via_engine = engine.compile(CompileTarget(dag, image_width=W, image_height=H))
        direct = compile_pipeline(CompileTarget(dag, image_width=W, image_height=H))
        assert via_engine.schedule.start_cycles == direct.schedule.start_cycles
        assert via_engine.schedule.total_allocated_bits == direct.schedule.total_allocated_bits

    def test_compile_is_submit_unwrap(self, engine):
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        assert engine.compile(target).schedule is engine.submit(target).accelerator.schedule

    def test_non_target_input_is_a_type_error(self, engine):
        with pytest.raises(TypeError, match="CompileTarget"):
            engine.submit(build_chain(3))
        with pytest.raises(TypeError, match="CompileTarget"):
            engine.submit_batch([build_chain(3)])

    def test_compile_takes_only_a_target(self, engine):
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        with pytest.raises(TypeError, match="CompileTarget"):
            engine.compile(build_chain(3))
        with pytest.raises(TypeError):
            engine.compile(target, coalescing=True)
        with pytest.raises(TypeError):
            engine.compile(target, label="tagged")

    def test_target_metadata_rides_the_result(self, engine):
        result = engine.submit(
            CompileTarget(
                build_chain(3), image_width=W, image_height=H, metadata={"sweep_id": 7}
            )
        )
        assert result.ok
        assert result.target.metadata == {"sweep_id": 7}
        assert not hasattr(result, "request")

    def test_second_compile_is_a_cache_hit(self, engine):
        dag = build_paper_example()
        first = engine.compile(CompileTarget(dag, image_width=W, image_height=H))
        second = engine.compile(
            CompileTarget(build_paper_example(), image_width=W, image_height=H),
        )
        assert engine.cache.stats.hits == 1
        assert engine.cache.stats.misses == 1
        assert second.schedule is first.schedule
        assert engine.metrics.served_from_cache == 1

    def test_submit_reports_latency_and_source(self, engine):
        result = engine.submit(
            CompileTarget(build_chain(3), image_width=W, image_height=H, label="chain")
        )
        assert result.ok
        assert result.status is CompileStatus.OK
        assert result.source == "solver"
        assert result.seconds > 0
        assert result.fingerprint
        repeat = engine.submit(
            CompileTarget(build_chain(3), image_width=W, image_height=H)
        )
        assert repeat.source == "memory"
        assert repeat.from_cache

    def test_error_captured_not_raised(self, engine):
        result = engine.submit(
            CompileTarget(build_chain(3), image_width=1, image_height=H)
        )
        assert not result.ok
        assert result.status is CompileStatus.ERROR
        assert "SchedulingError" in result.error
        with pytest.raises(ReproError):
            result.unwrap()
        assert engine.metrics.errors == 1

    def test_caller_options_not_mutated(self, engine):
        options = SchedulerOptions()
        engine.compile(
            CompileTarget(
                build_chain(3), image_width=W, image_height=H, options=options
            ).with_options(coalescing=True),
        )
        assert options.coalescing is False

    def test_compile_pipeline_does_not_mutate_caller_options(self):
        options = SchedulerOptions()
        compile_pipeline(
            CompileTarget(
                build_chain(3), image_width=W, image_height=H, options=options
            ).with_options(coalescing=True),
        )
        assert options.coalescing is False

    def test_coalescing_fallback_reuses_plain_solve(self, engine):
        dag = build_paper_example()
        engine.compile(CompileTarget(dag, image_width=W, image_height=H))
        assert engine.cache.stats.misses == 1
        # The auto-policy +LC compile solves the coalesced ILP but takes the
        # non-coalesced solve straight from the cache.
        engine.compile(
            CompileTarget(
                build_paper_example(), image_width=W, image_height=H
            ).with_options(coalescing=True),
        )
        assert engine.cache.stats.hits == 1
        assert engine.cache.stats.misses == 2


class TestBatches:
    def test_batch_preserves_order_and_dedupes(self, engine):
        requests = [
            CompileTarget(build_chain(3), image_width=W, image_height=H, label="a"),
            CompileTarget(build_chain(4), image_width=W, image_height=H, label="b"),
            CompileTarget(build_chain(3), image_width=W, image_height=H, label="c"),
        ]
        batch = engine.submit_batch(requests)
        assert [r.target.label for r in batch.results] == ["a", "b", "c"]
        assert all(r.ok for r in batch.results)
        sources = [r.source for r in batch.results]
        assert sources.count("deduplicated") == 1
        # Deduplicated twins share the identical accelerator.
        assert batch.results[2].accelerator.schedule is batch.results[0].accelerator.schedule
        assert engine.metrics.deduplicated == 1
        assert batch.seconds > 0
        assert batch.cache_stats is not None

    def test_one_bad_design_point_does_not_kill_the_batch(self, engine):
        requests = [
            CompileTarget(build_chain(3), image_width=W, image_height=H, label="good"),
            CompileTarget(build_chain(3), image_width=1, image_height=H, label="bad"),
            CompileTarget(build_chain(4), image_width=W, image_height=H, label="good2"),
        ]
        batch = engine.submit_batch(requests)
        assert len(batch.ok_results) == 2
        assert len(batch.failures) == 1
        assert batch.failures[0].target.label == "bad"
        with pytest.raises(ReproError, match="1/3"):
            batch.raise_on_error()

    def test_batch_item_identical_to_single_submit(self, engine):
        """A pool-run batch item and a caller-thread submit of the same
        target share one cached schedule."""
        target = CompileTarget(build_paper_example(), image_width=W, image_height=H)
        single = engine.submit(target)
        batch = engine.submit_batch([target])
        assert batch.results[0].ok
        assert batch.results[0].fingerprint == single.fingerprint
        assert batch.results[0].source == "memory"  # the submit warmed the cache
        assert batch.results[0].accelerator.schedule is single.accelerator.schedule

    def test_batch_is_independent_of_pool_size(self):
        targets = [
            CompileTarget(build_chain(3), image_width=W, image_height=H, label="a"),
            CompileTarget(build_chain(4), image_width=W, image_height=H, label="b"),
            CompileTarget(build_chain(3), image_width=W, image_height=H, label="c"),
            CompileTarget(
                build_paper_example(), image_width=W, image_height=H
            ).with_options(coalescing=True),
        ]
        with CompileEngine(workers=1) as narrow, CompileEngine(workers=3) as wide:
            one, many = narrow.submit_batch(targets), wide.submit_batch(targets)
        assert [r.target.label for r in many] == [r.target.label for r in one]
        assert [r.fingerprint for r in many] == [r.fingerprint for r in one]
        assert [r.source for r in many] == [r.source for r in one]
        for ours, theirs in zip(many.results, one.results):
            assert ours.ok and theirs.ok
            ours, theirs = ours.accelerator.schedule, theirs.accelerator.schedule
            assert ours.start_cycles == theirs.start_cycles
            assert ours.total_allocated_bits == theirs.total_allocated_bits

    def test_accelerators_helper_skips_failures(self, engine):
        batch = engine.submit_batch(
            [
                CompileTarget(build_chain(3), image_width=W, image_height=H),
                CompileTarget(build_chain(3), image_width=1, image_height=H),
            ]
        )
        assert len(batch.accelerators) == 1


class TestRepeatedCompilePipeline:
    def test_compile_pipeline_with_cache_skips_second_solve(self):
        """Acceptance: a repeated compile_pipeline call is served from cache."""
        cache = CompileCache()
        dag = build_paper_example()
        first = compile_pipeline(CompileTarget(dag, image_width=W, image_height=H), cache=cache)
        hits_before = cache.stats.hits
        second = compile_pipeline(CompileTarget(dag, image_width=W, image_height=H), cache=cache)
        assert cache.stats.hits == hits_before + 1
        assert cache.stats.misses == 1  # only the first call solved the ILP
        assert second.schedule is first.schedule
        assert second.metadata["schedule_sources"] == ("memory",)


class TestSweepIntegration:
    def test_parallel_sweep_equals_serial_sweep(self, engine):
        serial = sweep_memory_configurations(
            CompileTarget(build_algorithm("unsharp-m"), image_width=W, image_height=H),
        )
        parallel = sweep_memory_configurations(
            CompileTarget(build_algorithm("unsharp-m"), image_width=W, image_height=H),
            engine=engine,
        )
        assert [p.label for p in serial] == [p.label for p in parallel]
        assert [p.area_mm2 for p in serial] == [p.area_mm2 for p in parallel]
        assert [p.power_mw for p in serial] == [p.power_mw for p in parallel]
        assert [p.configuration for p in serial] == [p.configuration for p in parallel]
        # The all-DP design point was served from the baseline's cache entry.
        assert engine.cache.stats.hits >= 1

    def test_serial_sweep_reuses_baseline_compile(self):
        """The all-DP point is the baseline accelerator, not a recompile."""
        points = sweep_memory_configurations(
            CompileTarget(build_chain(3, stencil=3), image_width=W, image_height=H),
        )
        all_dp = next(p for p in points if p.label == "all-DP")
        # Baseline compiles with default options (auto policy), the sweep's
        # other points use the explicit per-stage policy.
        assert all_dp.accelerator.options.coalescing_policy == "auto"

    def test_warm_engine_resweep_is_all_hits(self, engine):
        dag = build_algorithm("unsharp-m")
        sweep_memory_configurations(
            CompileTarget(dag, image_width=W, image_height=H),
            engine=engine,
        )
        misses_before = engine.cache.stats.misses
        again = sweep_memory_configurations(
            CompileTarget(dag, image_width=W, image_height=H),
            engine=engine,
        )
        assert engine.cache.stats.misses == misses_before  # zero new ILP solves
        assert all(p.area_mm2 > 0 for p in again)

    def test_coalesced_base_target_does_not_leak_into_all_dp_point(self):
        """The baseline/all-DP compile must ignore the base's coalescing flag."""
        plain = CompileTarget(build_algorithm("unsharp-m"), image_width=W, image_height=H)
        coalesced = plain.with_options(coalescing=True)
        from_plain = sweep_memory_configurations(plain)
        from_coalesced = sweep_memory_configurations(coalesced)
        assert [p.label for p in from_coalesced] == [p.label for p in from_plain]
        assert [p.area_mm2 for p in from_coalesced] == [p.area_mm2 for p in from_plain]
        all_dp = next(p for p in from_coalesced if p.label == "all-DP")
        assert all_dp.accelerator.schedule.generator == "imagen"  # not "imagen+lc"


class TestInlineSubmitDedup:
    """Regression: inline ``submit`` must join the in-flight dedup table.

    It used to call ``_execute`` directly, so a submit racing a batch or
    another submit of the same fingerprint ran two solves — breaking the
    engine's "exactly one solve" guarantee.
    """

    @pytest.fixture
    def gated_solver(self, monkeypatch):
        """Make every solve block on a gate, counting entries."""
        import repro.service.engine as engine_mod

        real = engine_mod.compile_pipeline
        state = {
            "calls": 0,
            "entered": threading.Event(),
            "release": threading.Event(),
            "lock": threading.Lock(),
        }

        def gated(target, cache=None):
            with state["lock"]:
                state["calls"] += 1
            state["entered"].set()
            assert state["release"].wait(timeout=30)
            return real(target, cache=cache)

        monkeypatch.setattr(engine_mod, "compile_pipeline", gated)
        yield state
        state["release"].set()  # never leave blocked threads behind

    def _race(self, engine, first, second, gate):
        """Start ``first``, wait until it is solving, race ``second`` into it."""
        results = {}
        threads = [
            threading.Thread(target=lambda: results.update(first=first())),
        ]
        threads[0].start()
        assert gate["entered"].wait(timeout=30)
        threads.append(threading.Thread(target=lambda: results.update(second=second())))
        threads[1].start()
        # Give the second submitter time to (wrongly) start its own solve
        # before opening the gate; post-fix it is parked on the owner future.
        time.sleep(0.3)
        gate["release"].set()
        for thread in threads:
            thread.join(timeout=30)
        return results

    def test_sync_submit_joins_inflight_batch_solve(self, engine, gated_solver):
        """Acceptance: mixed submit paths record exactly one ``compiled``."""
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        results = self._race(
            engine,
            first=lambda: engine.submit_batch([target]),
            second=lambda: engine.submit(target),
            gate=gated_solver,
        )
        assert gated_solver["calls"] == 1  # exactly one solve ran
        assert engine.metrics.compiled == 1
        assert engine.metrics.deduplicated == 1
        assert results["second"].source == "deduplicated"
        assert (
            results["second"].accelerator.schedule
            is results["first"].results[0].accelerator.schedule
        )

    def test_batch_joins_inflight_inline_submit(self, engine, gated_solver):
        """The reverse race: an inline submit owns the solve, a batch joins it."""
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        results = self._race(
            engine,
            first=lambda: engine.submit(target),
            second=lambda: engine.submit_batch([target]),
            gate=gated_solver,
        )
        assert gated_solver["calls"] == 1
        assert engine.metrics.compiled == 1
        assert results["first"].source == "solver"
        assert results["second"].results[0].source == "deduplicated"

    def test_concurrent_inline_submits_share_one_solve(self, engine, gated_solver):
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        results = self._race(
            engine,
            first=lambda: engine.submit(target),
            second=lambda: engine.submit(target),
            gate=gated_solver,
        )
        assert gated_solver["calls"] == 1
        sources = sorted((results["first"].source, results["second"].source))
        assert sources == ["deduplicated", "solver"]
        assert engine.metrics.requests == 2
        assert engine.metrics.compiled == 1

    def test_inline_owner_future_is_cancel_proof(self, engine, gated_solver):
        """A joiner cancelling the published future must not break the owner.

        The inline future is marked running before publication, so a
        joiner's cancel() is a no-op instead of flipping the future into a
        state where the owner's set_result() raises.
        """
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        results = {}
        owner = threading.Thread(target=lambda: results.update(r=engine.submit(target)))
        owner.start()
        assert gated_solver["entered"].wait(timeout=30)
        future = engine._flight._inflight[target.fingerprint]
        assert future.cancel() is False  # joiner cancels are no-ops
        gated_solver["release"].set()
        owner.join(timeout=30)
        assert results["r"].ok and results["r"].source == "solver"
        assert future.result(timeout=30).fingerprint == target.fingerprint

    def test_sequential_submits_do_not_dedup(self, engine):
        """No in-flight twin: the second submit is a plain cache hit."""
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        assert engine.submit(target).source == "solver"
        assert engine.submit(target).source == "memory"
        assert engine.metrics.deduplicated == 0
        assert not engine._flight._inflight  # the inline future was unpublished


class TestBaselineRequests:
    """Baseline generators are served through the same engine and cache."""

    def test_repeated_baseline_served_from_cache(self, engine):
        """Acceptance: a repeated generate_baseline design point is a cache hit."""
        target = CompileTarget(
            build_paper_example(), image_width=W, image_height=H, generator="darkroom"
        )
        first = engine.submit(target)
        assert first.ok and first.source == "solver"
        assert engine.cache.stats.misses == 1
        second = engine.submit(target)
        assert second.source == "memory" and second.from_cache
        assert engine.cache.stats.hits == 1
        assert engine.metrics.served_from_cache == 1
        assert second.accelerator.schedule is first.accelerator.schedule
        assert second.accelerator.schedule.generator == "darkroom"

    def test_mixed_generator_batch(self, engine):
        base = CompileTarget(build_paper_example(), image_width=W, image_height=H)
        batch = engine.submit_batch(
            [base, base.with_generator("fixynn"), base.with_generator("soda")]
        )
        assert [r.accelerator.schedule.generator for r in batch.results] == [
            "imagen",
            "fixynn",
            "soda",
        ]
        assert len({r.fingerprint for r in batch.results}) == 3

    def test_unknown_generator_is_captured_as_error(self, engine):
        result = engine.submit(
            CompileTarget(build_chain(3), image_width=W, image_height=H, generator="halide")
        )
        assert not result.ok
        assert "BaselineError" in result.error


class TestWorkerSizing:
    def test_env_override(self, monkeypatch):
        from repro.service import default_worker_count

        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_worker_count() == 3
        assert CompileEngine().workers == 3

    def test_explicit_workers_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert CompileEngine(workers=5).workers == 5

    def test_invalid_env_rejected_with_value_error(self, monkeypatch):
        """Regression: 0/negative/garbage REPRO_WORKERS used to be silently
        ignored (mis-sizing production pools); they must fail loudly now."""
        from repro.service import default_worker_count

        for bad in ("zero", "0", "-2", "1.5", ""):
            monkeypatch.setenv("REPRO_WORKERS", bad)
            if not bad.strip():
                default_worker_count()  # unset/blank still means "auto"
                continue
            with pytest.raises(ValueError, match="REPRO_WORKERS"):
                default_worker_count()
            with pytest.raises(ValueError, match="REPRO_WORKERS"):
                CompileEngine()

    def test_invalid_explicit_workers_rejected(self):
        for bad in (0, -3, "four"):
            with pytest.raises(ValueError, match="workers"):
                CompileEngine(workers=bad)
