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
                options=SchedulerOptions(ports=1),
            ),
        )
        assert accelerator.schedule.memory_spec.ports == 1

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


class TestFingerprintMetadata:
    def test_fingerprints_recorded_alongside_sources(self):
        from repro.service import CompileCache

        cache = CompileCache()
        target = CompileTarget(build_paper_example(), image_width=W, image_height=H)
        accelerator = compile_pipeline(target, cache=cache)
        sources = accelerator.metadata["schedule_sources"]
        fingerprints = accelerator.metadata["schedule_fingerprints"]
        assert len(fingerprints) == len(sources) == 1
        assert fingerprints[0] == target.fingerprint
        assert accelerator.fingerprint == target.fingerprint
        # The recorded fingerprint is the cache key of the stored entry.
        assert fingerprints[0] in cache

    def test_auto_coalescing_fallback_records_both_solves(self):
        from repro.service import CompileCache

        cache = CompileCache()
        target = CompileTarget(
            build_paper_example(), image_width=W, image_height=H
        ).with_options(coalescing=True)
        accelerator = compile_pipeline(target, cache=cache)
        sources = accelerator.metadata["schedule_sources"]
        fingerprints = accelerator.metadata["schedule_fingerprints"]
        assert len(fingerprints) == len(sources) == 2
        assert fingerprints[0] == target.fingerprint
        assert fingerprints[1] == target.with_options(coalescing=False).fingerprint
        assert all(fingerprint in cache for fingerprint in fingerprints)

    def test_fingerprints_recorded_even_without_cache(self):
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        accelerator = compile_pipeline(target)
        assert accelerator.metadata["schedule_fingerprints"] == (target.fingerprint,)
        assert accelerator.metadata["schedule_sources"] == ("solver",)
        assert accelerator.target is target


class TestOneRequestForm:
    """Every library compile entry point takes exactly one form: a target."""

    def test_compile_pipeline_is_compile_target(self):
        import repro
        from repro.core.compiler import compile_target

        assert compile_pipeline is compile_target
        assert repro.compile_pipeline is compile_target

    @pytest.mark.parametrize(
        "entry_point",
        ["compile_pipeline", "generate_baseline", "sweep_memory_configurations"],
    )
    def test_non_target_input_is_a_type_error(self, entry_point):
        from repro.baselines import generate_baseline
        from repro.dse.sweep import sweep_memory_configurations

        call = {
            "compile_pipeline": compile_pipeline,
            "generate_baseline": generate_baseline,
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
