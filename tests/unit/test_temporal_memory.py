"""Frame buffers: config record, allocator derivation, schedule and estimates."""

from __future__ import annotations

import pytest

from repro.api.target import CompileTarget
from repro.core.compiler import compile_target
from repro.dsl.builder import PipelineBuilder, temporal_average
from repro.errors import AllocationError
from repro.estimate.area import area_report
from repro.estimate.power import frame_buffer_access_rates, power_report
from repro.estimate.report import accelerator_report
from repro.memory.allocator import allocate_frame_buffer, derive_frame_buffers
from repro.memory.linebuffer import FrameBufferConfig
from repro.memory.spec import asic_dual_port

from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain


def build_temporal_pipeline():
    builder = PipelineBuilder("tavg")
    f0 = builder.input("F0")
    blur = builder.stage("B0", (f0(-1, 0) + f0(0, 0) + f0(1, 0)) / 3)
    builder.output("OUT", temporal_average(blur, 3))
    return builder.build()


class TestFrameBufferConfig:
    def test_capacity_counts_retained_history_only(self):
        spec = asic_dual_port()
        config = FrameBufferConfig("B0", 64, 48, 2, spec)
        assert config.pixel_capacity == 2 * 64 * 48
        assert config.data_bits == config.pixel_capacity * spec.pixel_bits

    def test_rotation_slot_in_block_count(self):
        spec = asic_dual_port()
        config = FrameBufferConfig("B0", 64, 48, 2, spec)
        assert config.slots == 3
        frame_bits = 64 * 48 * spec.pixel_bits
        blocks_per_frame = -(-frame_bits // spec.block_bits)
        assert config.num_blocks == 3 * blocks_per_frame


class TestAllocator:
    def test_allocate_validates_arguments(self):
        spec = asic_dual_port()
        with pytest.raises(AllocationError):
            allocate_frame_buffer("B0", 64, 48, 0, spec)
        with pytest.raises(AllocationError):
            allocate_frame_buffer("B0", 0, 48, 1, spec)

    def test_derive_matches_frame_depths(self):
        dag = build_temporal_pipeline()
        configs = derive_frame_buffers(dag, 64, 48, asic_dual_port())
        assert {c.producer: c.depth for c in configs} == dag.frame_depths()

    def test_spatial_dag_derives_nothing(self):
        assert derive_frame_buffers(build_chain(), 64, 48, asic_dual_port()) == []


class TestScheduleIntegration:
    def test_auto_derivation_and_totals(self):
        target = CompileTarget(
            dag=build_temporal_pipeline(),
            image_width=TEST_WIDTH,
            image_height=TEST_HEIGHT,
        )
        schedule = compile_target(target).schedule
        assert schedule.is_temporal
        assert set(schedule.frame_buffers) == {"B0"}
        assert schedule.frame_buffer_allocated_bits > 0
        # Frame-buffer blocks are part of the grand totals.
        line_blocks = sum(c.num_blocks for c in schedule.line_buffers.values())
        assert schedule.total_blocks == line_blocks + schedule.frame_buffer_blocks

    def test_spatial_schedule_has_no_frame_buffers(self):
        target = CompileTarget(
            dag=build_chain(), image_width=TEST_WIDTH, image_height=TEST_HEIGHT
        )
        schedule = compile_target(target).schedule
        assert schedule.frame_buffers == {}
        assert schedule.frame_buffer_allocated_bits == 0

    def test_describe_mentions_frame_buffers(self):
        target = CompileTarget(
            dag=build_temporal_pipeline(),
            image_width=TEST_WIDTH,
            image_height=TEST_HEIGHT,
        )
        schedule = compile_target(target).schedule
        assert "FB" in schedule.describe()


class TestEstimates:
    @pytest.fixture
    def temporal_schedule(self):
        target = CompileTarget(
            dag=build_temporal_pipeline(),
            image_width=TEST_WIDTH,
            image_height=TEST_HEIGHT,
        )
        return compile_target(target).schedule

    def test_area_includes_frame_memory(self, temporal_schedule):
        report = area_report(temporal_schedule)
        assert report.frame_memory_mm2 > 0
        without = sum(b.total_mm2 for b in report.buffers.values())
        assert report.memory_mm2 == pytest.approx(
            without + report.frame_memory_mm2
        )

    def test_power_includes_frame_memory(self, temporal_schedule):
        report = power_report(temporal_schedule)
        assert report.frame_memory_mw > 0
        assert report.memory_mw > sum(b.total_mw for b in report.buffers.values())

    def test_access_rate_is_one_write_plus_depth_reads(self, temporal_schedule):
        config = temporal_schedule.frame_buffers["B0"]
        assert frame_buffer_access_rates(config) == 1.0 + config.depth

    def test_row_gains_frame_keys_only_when_temporal(self, temporal_schedule):
        temporal_row = accelerator_report(temporal_schedule).row()
        assert temporal_row["frame_buffers"] == 1
        assert temporal_row["frame_sram_kb"] > 0

        spatial = compile_target(
            CompileTarget(
                dag=build_chain(), image_width=TEST_WIDTH, image_height=TEST_HEIGHT
            )
        ).schedule
        spatial_row = accelerator_report(spatial).row()
        assert "frame_sram_kb" not in spatial_row
        assert "frame_buffers" not in spatial_row
