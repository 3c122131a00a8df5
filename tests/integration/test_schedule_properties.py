"""Integration checks of schedule-level invariants the paper relies on."""

import pytest

from repro.algorithms import ALGORITHM_NAMES, build_algorithm, build_synthetic_pipeline
from repro.api import CompileTarget
from repro.core.compiler import compile_pipeline
from repro.core.constraints import data_dependency_constraints
from repro.core.scheduler import SchedulerOptions, schedule_pipeline
from repro.dsl.builder import PipelineBuilder, window_sum
from repro.memory.spec import asic_dual_port
from repro.service import CompileEngine, VerifyEngine, VerifyRequest
from repro.sim.cycle import check_schedule_legality, simulate_schedule

W, H = 64, 48


class TestScheduleInvariants:
    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_data_dependencies_satisfied(self, algorithm):
        dag = build_algorithm(algorithm)
        schedule = compile_pipeline(CompileTarget(dag, image_width=W, image_height=H)).schedule
        for dep in data_dependency_constraints(dag, W):
            assert schedule.delay(dep.producer, dep.consumer) >= dep.min_delay

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_input_stages_start_at_zero(self, algorithm):
        dag = build_algorithm(algorithm)
        schedule = compile_pipeline(CompileTarget(dag, image_width=W, image_height=H)).schedule
        for stage in dag.input_stages():
            assert schedule.start(stage.name) == 0

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_every_producer_has_a_buffer_record(self, algorithm):
        dag = build_algorithm(algorithm)
        schedule = compile_pipeline(CompileTarget(dag, image_width=W, image_height=H)).schedule
        for producer in dag.stage_names():
            if dag.consumers_of(producer):
                assert producer in schedule.line_buffers
            else:
                assert producer not in schedule.line_buffers

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_latency_close_to_baselines(self, algorithm):
        """Sec. 8.1: the memory savings come with essentially no latency cost."""
        dag = build_algorithm(algorithm)
        ours = compile_pipeline(CompileTarget(dag, image_width=480, image_height=320)).schedule
        darkroom = compile_pipeline(
            CompileTarget(dag, image_width=480, image_height=320, generator="darkroom"),
        ).schedule
        ratio = ours.end_to_end_latency_cycles / darkroom.end_to_end_latency_cycles
        # ImaGen is never slower than Darkroom and stays within a few percent.
        assert ratio <= 1.001
        assert ratio >= 0.9

    def test_imagen_uses_less_sram_than_darkroom_in_aggregate(self):
        ours_total = 0
        darkroom_total = 0
        for algorithm in ALGORITHM_NAMES:
            dag = build_algorithm(algorithm)
            ours_total += compile_pipeline(
                CompileTarget(dag, image_width=W, image_height=H),
            ).schedule.total_allocated_bits
            darkroom_total += compile_pipeline(
                CompileTarget(dag, image_width=W, image_height=H, generator="darkroom"),
            ).schedule.total_allocated_bits
        assert ours_total < darkroom_total

    def test_objective_matches_sum_of_max_delays(self):
        dag = build_algorithm("unsharp-m")
        schedule = compile_pipeline(CompileTarget(dag, image_width=W, image_height=H)).schedule
        objective = schedule.solver_stats["objective"]
        total = sum(
            schedule.max_delay(p) for p in dag.stage_names() if dag.consumers_of(p)
        )
        assert objective == pytest.approx(total)


class TestScalability:
    @pytest.mark.parametrize("stages", [9, 15, 24])
    def test_synthetic_pipelines_schedule(self, stages):
        dag = build_synthetic_pipeline(stages)
        schedule = schedule_pipeline(dag, W, H, asic_dual_port())
        assert len(schedule.start_cycles) == stages
        assert schedule.solver_stats["compile_seconds"] < 30

    def test_compile_time_grows_moderately(self):
        small = schedule_pipeline(build_synthetic_pipeline(9), W, H, asic_dual_port())
        large = schedule_pipeline(build_synthetic_pipeline(30), W, H, asic_dual_port())
        assert large.solver_stats["ilp_variables"] > small.solver_stats["ilp_variables"]

    def test_pruning_reduces_candidates_on_synthetic_pipelines(self):
        dag = build_synthetic_pipeline(18)
        pruned = schedule_pipeline(dag, W, H, asic_dual_port(), SchedulerOptions(pruning=True))
        raw = schedule_pipeline(dag, W, H, asic_dual_port(), SchedulerOptions(pruning=False))
        assert (
            pruned.solver_stats["pruned_contention_candidates"]
            <= raw.solver_stats["pruned_contention_candidates"]
        )
        assert pruned.solver_stats["objective"] == pytest.approx(raw.solver_stats["objective"])


def coalesced_reader_dag():
    """K4 trails K3 by 5 rows + 1 cycle at width 16 and reads 3 of its lines.

    In a 6-line LB[K3] of 2-line blocks, row phase 0 puts K3's line and two
    of K4's lines in one dual-port block, so the buffer needs 8 lines.
    """
    builder = PipelineBuilder("coalesced-ports")
    k0 = builder.input("K0")
    k1 = builder.stage("K1", window_sum(k0, 5, 5))
    k2 = builder.stage("K2", window_sum(k0, 5, 5) + window_sum(k1, 2, 2))
    k3 = builder.stage("K3", window_sum(k0, 2, 2))
    builder.output("K4", window_sum(k3, 3, 3) + k2(0, 0))
    return builder.build()


class TestCoalescedPortOccupancy:
    """The allocator sizes coalesced buffers with the reserved table R3 checks."""

    def test_coalesced_design_passes_every_legality_check(self, tmp_path):
        target = CompileTarget(
            coalesced_reader_dag(), image_width=16, image_height=24, memory_spec=asic_dual_port()
        ).with_options(coalescing=True)
        schedule = compile_pipeline(target).schedule
        assert schedule.line_buffers["K3"].coalesce_factor == 2
        assert check_schedule_legality(schedule).ok
        assert simulate_schedule(schedule).ok

        engine = CompileEngine(workers=1, cache_dir=tmp_path / "cache")
        try:
            result = VerifyEngine(engine).submit(VerifyRequest(target=target, check="cycle"))
        finally:
            engine.shutdown()
        assert result.cycle["passed"] is True, result.cycle["violations"]
