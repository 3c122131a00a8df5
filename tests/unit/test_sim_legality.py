"""Unit tests for the reserved-table legality checker (repro.sim.cycle).

The contract under test: ``check_schedule_legality`` must agree with the
cycle-accurate event walk (``simulate_schedule``) at the granularity of
``(rule, producer, consumer)`` violation keys — on legal schedules, on
hand-broken ones, and on the whole algorithm catalog.
"""

import pytest

from repro.algorithms import ALGORITHM_NAMES, build_algorithm
from repro.api import CompileTarget
from repro.core.compiler import compile_pipeline
from repro.core.schedule import PipelineSchedule
from repro.memory.allocator import allocate_line_buffer
from repro.memory.spec import asic_dual_port, asic_single_port
from repro.sim.cycle import (
    LegalityViolation,
    check_schedule_legality,
    simulate_schedule,
)

from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain, build_paper_example

W, H = TEST_WIDTH, TEST_HEIGHT


def event_walk_keys(schedule, rows):
    report = simulate_schedule(schedule, max_rows=rows, max_violations=1_000_000)
    return report.violation_keys


def broken_schedule():
    """Starts far too early: violates causality and over-subscribes ports."""
    dag = build_chain(2, stencil=3)
    spec = asic_dual_port()
    starts = {"K0": 0, "K1": 1}
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
    def test_compiled_chain_is_legal(self):
        schedule = compile_pipeline(
            CompileTarget(build_chain(3), image_width=W, image_height=H),
        ).schedule
        report = check_schedule_legality(schedule)
        assert report.ok
        assert not report.violations
        assert report.to_payload()["passed"] is True

    def test_paper_example_is_legal(self):
        schedule = compile_pipeline(
            CompileTarget(build_paper_example(), image_width=W, image_height=H),
        ).schedule
        assert check_schedule_legality(schedule).ok

    def test_single_port_spec_is_legal(self):
        schedule = compile_pipeline(
            CompileTarget(
                build_chain(3), image_width=W, image_height=H, memory_spec=asic_single_port()
            ),
        ).schedule
        assert check_schedule_legality(schedule).ok


class TestBrokenSchedules:
    def test_violations_match_event_walk(self):
        schedule = broken_schedule()
        report = check_schedule_legality(schedule, max_rows=H)
        assert not report.ok
        assert report.keys() == event_walk_keys(schedule, H)

    def test_rules_identified(self):
        report = check_schedule_legality(broken_schedule(), max_rows=H)
        rules = {violation.rule for violation in report.violations}
        assert "R1" in rules  # premature consumer start = causality

    def test_violation_is_hashable_and_typed(self):
        report = check_schedule_legality(broken_schedule(), max_rows=H)
        violation = report.violations[0]
        assert isinstance(violation, LegalityViolation)
        assert violation.key in report.keys()
        assert violation.message


class TestCatalogAgreement:
    """Acceptance: reserved-table == event-walk on the full algorithm catalog."""

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_catalog_algorithm_agrees_with_event_walk(self, name):
        schedule = compile_pipeline(
            CompileTarget(build_algorithm(name), image_width=W, image_height=H),
        ).schedule
        report = check_schedule_legality(schedule, max_rows=H)
        assert report.keys() == event_walk_keys(schedule, H)
        assert report.ok  # compiled schedules are stall-free by construction

    @pytest.mark.parametrize("name", ("unsharp-m", "harris-s"))
    def test_catalog_uses_reserved_table_at_full_resolution(self, name):
        """The fast path must actually engage for real design points."""
        schedule = compile_pipeline(
            CompileTarget(build_algorithm(name), image_width=W, image_height=H),
        ).schedule
        report = check_schedule_legality(schedule)
        assert report.method == "reserved-table"
        assert report.rows_analyzed == H


class TestFallback:
    def test_short_frames_fall_back_to_event_walk(self):
        """Frames shorter than a full-activity window get the exact walker."""
        schedule = compile_pipeline(
            CompileTarget(build_chain(3), image_width=W, image_height=H),
        ).schedule
        report = check_schedule_legality(schedule, max_rows=2)
        assert report.method == "event-walk"
        assert report.keys() == event_walk_keys(schedule, 2)
