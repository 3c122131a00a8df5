"""Unit tests for the top-level compile facade."""

import pytest

from repro.api import CompileTarget
from repro.core.compiler import compile_pipeline
from repro.core.scheduler import SchedulerOptions
from repro.memory.spec import asic_dual_port, asic_single_port

from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain, build_paper_example

W, H = TEST_WIDTH, TEST_HEIGHT


class TestCompile:
    def test_default_memory_spec(self):
        accelerator = compile_pipeline(
            CompileTarget(build_chain(3), image_width=W, image_height=H),
        )
        assert accelerator.schedule.memory_spec.name == asic_dual_port().name
        assert accelerator.compile_seconds > 0

    def test_coalescing_flag_overrides_options(self):
        accelerator = compile_pipeline(
            CompileTarget(
                build_chain(3, stencil=5),
                image_width=W,
                image_height=H,
                options=SchedulerOptions(coalescing=False),
            ).with_options(coalescing=True),
        )
        assert accelerator.schedule.generator == "imagen+lc"

    def test_lc_never_allocates_more_than_plain(self):
        for dag_builder in (lambda: build_chain(3, stencil=3), build_paper_example):
            dag = dag_builder()
            plain = compile_pipeline(CompileTarget(dag, image_width=W, image_height=H))
            coalesced = compile_pipeline(
                CompileTarget(dag, image_width=W, image_height=H).with_options(coalescing=True),
            )
            assert coalesced.schedule.total_allocated_bits <= plain.schedule.total_allocated_bits

    def test_memory_spec_passthrough(self):
        accelerator = compile_pipeline(
            CompileTarget(
                build_chain(3),
                image_width=W,
                image_height=H,
                memory_spec=asic_single_port(),
            ),
        )
        assert accelerator.schedule.memory_spec.ports == 1
        assert accelerator.schedule.solver_stats["ports"] == 1

    def test_verify_runs_cycle_checks(self):
        accelerator = compile_pipeline(
            CompileTarget(build_chain(3), image_width=W, image_height=H),
        )
        report = accelerator.verify()
        assert report.ok
        assert report.steady_state_throughput == pytest.approx(1.0, abs=0.05)

    def test_reports_available(self):
        accelerator = compile_pipeline(
            CompileTarget(build_paper_example(), image_width=W, image_height=H),
        )
        area = accelerator.area_report()
        power = accelerator.power_report()
        assert area.memory_mm2 > 0
        assert power.memory_mw > 0

    def test_generate_verilog(self):
        accelerator = compile_pipeline(
            CompileTarget(build_chain(3), image_width=W, image_height=H),
        )
        verilog = accelerator.generate_verilog()
        assert "module accelerator_chain" in verilog
        assert "endmodule" in verilog

    def test_describe(self):
        accelerator = compile_pipeline(
            CompileTarget(build_chain(3), image_width=W, image_height=H),
        )
        assert "K0" in accelerator.describe()
        assert accelerator.dag is accelerator.schedule.dag


class TestCacheEntryIsTheCompiledSchedule:
    """The entry under a target's fingerprint is the schedule compile returns."""

    def test_fingerprint_and_source_of_a_cached_compile(self):
        from repro.service import CompileCache

        cache = CompileCache()
        target = CompileTarget(build_paper_example(), image_width=W, image_height=H)
        accelerator = compile_pipeline(target, cache=cache)
        assert accelerator.source == "solver"
        assert accelerator.fingerprint == target.fingerprint
        # The fingerprint is the cache key of the stored entry.
        schedule, source, _ = cache.fetch(target)
        assert schedule is accelerator.schedule and source == "memory"
        assert compile_pipeline(target, cache=cache).source == "memory"

    def test_auto_coalescing_miss_caches_the_kept_schedule_and_its_plain_twin(self):
        from repro.service import CompileCache

        cache = CompileCache()
        target = CompileTarget(
            build_paper_example(), image_width=W, image_height=H
        ).with_options(coalescing=True)
        accelerator = compile_pipeline(target, cache=cache)
        assert (cache.stats.misses, cache.stats.stores) == (2, 2)
        assert cache.fetch(target)[0] is accelerator.schedule
        assert target.with_options(coalescing=False).fingerprint in cache

    def test_warm_auto_coalescing_compile_is_one_lookup(self):
        """A warm +LC compile adds one hit, opens no ``coalescing_fallback``
        span and returns the cached schedule object."""
        from repro.service import CompileCache
        from repro.trace import collect_spans

        cache = CompileCache()
        target = CompileTarget(
            build_paper_example(), image_width=W, image_height=H
        ).with_options(coalescing=True)
        cold = compile_pipeline(target, cache=cache)
        hits = cache.stats.hits
        with collect_spans() as trace:
            warm = compile_pipeline(
                CompileTarget(build_paper_example(), image_width=W, image_height=H)
                .with_options(coalescing=True),
                cache=cache,
            )
        assert cache.stats.hits == hits + 1
        assert warm.schedule is cold.schedule and warm.source == "memory"
        assert [span.name for span in trace.spans] == ["cache"]

    def test_plain_schedule_kept_by_the_auto_policy_is_cached_relabelled(self):
        """denoise-m keeps its plain solve under +LC at 480x320; the +LC
        entry is that schedule relabelled, the plain entry stays pristine."""
        from repro.algorithms import build_algorithm
        from repro.service import CompileCache

        cache = CompileCache()
        target = CompileTarget(
            build_algorithm("denoise-m"), image_width=480, image_height=320
        ).with_options(coalescing=True)
        kept = compile_pipeline(target, cache=cache).schedule
        plain = cache.fetch(target.with_options(coalescing=False))[0]
        assert kept.solver_stats["coalescing_fallback"] is True
        assert (kept.generator, plain.generator) == ("imagen+lc", "imagen")
        assert "coalescing_fallback" not in plain.solver_stats
        assert kept.start_cycles == plain.start_cycles
        assert cache.fetch(target)[0] is kept

    def test_uncached_compile_reads_fingerprint_and_options_from_its_target(self):
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        accelerator = compile_pipeline(target)
        assert accelerator.target is target
        assert accelerator.fingerprint == target.fingerprint
        assert accelerator.options is target.options
        assert accelerator.source == "solver"


class TestOneRequestForm:
    """Every library compile entry point takes exactly one form: a target."""

    def test_compile_pipeline_is_compile_target(self):
        import repro
        from repro.core.compiler import compile_target

        assert compile_pipeline is compile_target
        assert repro.compile_pipeline is compile_target

    @pytest.mark.parametrize(
        "entry_point",
        ["compile_pipeline", "sweep_memory_configurations"],
    )
    def test_non_target_input_is_a_type_error(self, entry_point):
        from repro.dse.sweep import sweep_memory_configurations

        call = {
            "compile_pipeline": compile_pipeline,
            "sweep_memory_configurations": sweep_memory_configurations,
        }[entry_point]
        with pytest.raises(TypeError, match="Expected a CompileTarget, got PipelineDAG"):
            call(build_chain(3))

    def test_resolution_keywords_are_not_accepted(self):
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        with pytest.raises(TypeError):
            compile_pipeline(target, image_width=W)
        with pytest.raises(TypeError):
            compile_pipeline(build_chain(3), image_width=W, image_height=H)
