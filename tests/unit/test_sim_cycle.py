"""Unit tests for the cycle-level simulator (R1-R3 checks and access counts)."""

import pytest

from repro.api import CompileTarget
from repro.core.compiler import compile_pipeline
from repro.core.schedule import PipelineSchedule
from repro.errors import SimulationError
from repro.estimate.power import buffer_access_rates
from repro.memory.allocator import allocate_line_buffer
from repro.memory.spec import asic_dual_port
from repro.sim.cycle import simulate_schedule

from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain, build_paper_example

W, H = TEST_WIDTH, TEST_HEIGHT


def legal_chain_schedule():
    return compile_pipeline(CompileTarget(build_chain(3), image_width=W, image_height=H)).schedule


def broken_schedule():
    """A hand-built schedule that violates both causality and port limits."""
    dag = build_chain(2, stencil=3)
    spec = asic_dual_port()
    starts = {"K0": 0, "K1": 1}  # far too early: needs 2W+1
    buffers = {
        "K0": allocate_line_buffer("K0", W, 3, spec, reader_heights={"K1": 3}),
    }
    return PipelineSchedule(
        dag=dag,
        image_width=W,
        image_height=H,
        memory_spec=spec,
        start_cycles=starts,
        line_buffers=buffers,
        generator="broken",
    )


class TestLegalSchedules:
    def test_no_violations(self):
        report = simulate_schedule(legal_chain_schedule())
        assert report.ok
        assert report.violations == []

    def test_throughput_is_one_pixel_per_cycle(self):
        report = simulate_schedule(legal_chain_schedule())
        assert report.steady_state_throughput == pytest.approx(1.0, abs=0.05)

    def test_access_counts_match_analytic_rates(self):
        schedule = legal_chain_schedule()
        report = simulate_schedule(schedule, max_rows=schedule.image_height)
        for producer, stats in report.buffer_stats.items():
            config = schedule.line_buffers[producer]
            if config.lines == 0:
                continue
            expected_rate = buffer_access_rates(config)
            cycles = report.cycles_simulated
            measured_rate = stats.total_accesses / cycles
            # Ramp-up makes the measured rate slightly lower than steady state.
            assert measured_rate <= expected_rate + 1e-9
            assert measured_rate >= 0.5 * expected_rate

    def test_peak_block_accesses_within_ports(self):
        schedule = legal_chain_schedule()
        report = simulate_schedule(schedule)
        for stats in report.buffer_stats.values():
            assert stats.peak_block_accesses <= schedule.memory_spec.ports

    def test_multi_consumer_schedule_is_legal(self):
        schedule = compile_pipeline(
            CompileTarget(build_paper_example(), image_width=W, image_height=H),
        ).schedule
        report = simulate_schedule(schedule)
        assert report.ok

    def test_max_rows_respected(self):
        report = simulate_schedule(legal_chain_schedule(), max_rows=6)
        assert report.rows_simulated == 6


class TestViolationDetection:
    def test_causality_violation_detected(self):
        report = simulate_schedule(broken_schedule())
        assert not report.ok
        assert any("R1" in violation for violation in report.violations)

    def test_raise_on_violation(self):
        with pytest.raises(SimulationError):
            simulate_schedule(broken_schedule(), raise_on_violation=True)

    def test_violation_list_is_bounded(self):
        report = simulate_schedule(broken_schedule(), max_violations=5)
        assert len(report.violations) <= 5

    def test_early_consumer_start_detected(self):
        dag = build_paper_example()
        good = compile_pipeline(CompileTarget(dag, image_width=W, image_height=H)).schedule
        # Sabotage: start K2 as soon as its K0 window allows, ignoring its
        # dependency on K1 entirely.
        bad_starts = dict(good.start_cycles)
        bad_starts["K2"] = bad_starts["K0"] + W + 1
        sabotaged = PipelineSchedule(
            dag=dag,
            image_width=W,
            image_height=H,
            memory_spec=good.memory_spec,
            start_cycles=bad_starts,
            line_buffers=good.line_buffers,
            generator="sabotaged",
        )
        report = simulate_schedule(sabotaged)
        assert not report.ok
