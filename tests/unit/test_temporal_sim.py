"""Temporal simulation: axes disambiguation, replay parity, FB legality."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.target import CompileTarget
from repro.core.compiler import compile_target
from repro.dsl.builder import PipelineBuilder, frame_difference
from repro.errors import SimulationError
from repro.memory.linebuffer import FrameBufferConfig
from repro.sim.batch import replay_frames
from repro.sim.cycle import (
    check_schedule_legality,
    frame_buffer_violations,
    simulate_schedule,
)
from repro.sim.functional import run_functional

from oracles import replay_frames_loop
from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain


def build_frame_diff():
    builder = PipelineBuilder("fdiff")
    f0 = builder.input("F0")
    builder.output("OUT", frame_difference(f0, 1))
    return builder.build()


def build_chained_temporal():
    """Two chained temporal reads: history depth (2) exceeds edge depth (1)."""
    builder = PipelineBuilder("tchain")
    f0 = builder.input("F0")
    a = builder.stage("A", f0(0, 0) + f0.prev(1))
    builder.output("OUT", a(0, 0) + a.prev(1))
    return builder.build()


class TestAxesDisambiguation:
    def test_unknown_convention_rejected(self):
        dag = build_chain()
        image = np.zeros((TEST_HEIGHT, TEST_WIDTH))
        with pytest.raises(SimulationError, match="axes"):
            run_functional(dag, {"K0": image}, axes="xyz")

    def test_temporal_dag_demands_explicit_tyx(self):
        dag = build_frame_diff()
        stack = np.zeros((3, TEST_HEIGHT, TEST_WIDTH))
        with pytest.raises(SimulationError, match="tyx"):
            run_functional(dag, {"F0": stack})
        with pytest.raises(SimulationError, match="tyx"):
            run_functional(dag, {"F0": stack}, axes="fyx")
        result = run_functional(dag, {"F0": stack}, axes="tyx")
        assert result.output().shape == stack.shape

    def test_yx_rejects_stacks(self):
        dag = build_chain()
        stack = np.zeros((3, TEST_HEIGHT, TEST_WIDTH))
        with pytest.raises(SimulationError, match="yx"):
            run_functional(dag, {"K0": stack}, axes="yx")

    def test_fyx_runs_independent_frames(self):
        dag = build_chain()
        stack = np.random.default_rng(0).uniform(size=(2, TEST_HEIGHT, TEST_WIDTH))
        batched = run_functional(dag, {"K0": stack}, axes="fyx")
        single = run_functional(dag, {"K0": stack[0]}, axes="yx")
        np.testing.assert_array_equal(batched.output()[0], single.output())


class TestReplayParity:
    @pytest.mark.parametrize("build", [build_frame_diff, build_chained_temporal])
    def test_vectorized_matches_frame_loop(self, build):
        dag = build()
        fast = replay_frames(dag, 32, 24, frames=5, seed=3)
        slow = replay_frames_loop(dag, 32, 24, frames=5, seed=3)
        assert fast.digest == slow.digest

    def test_first_frames_clamp_to_frame_zero(self):
        replay = replay_frames(build_frame_diff(), 16, 12, frames=3, seed=0)
        # |frame0 - frame0| = 0 everywhere on the clamped first frame.
        assert float(np.max(np.abs(replay.output()[0]))) == 0.0


class TestFrameBufferLegality:
    def _schedule(self):
        target = CompileTarget(
            dag=build_frame_diff(), image_width=TEST_WIDTH, image_height=TEST_HEIGHT
        )
        return compile_target(target).schedule

    def test_compiled_temporal_schedule_is_legal(self):
        schedule = self._schedule()
        assert frame_buffer_violations(schedule) == []
        report = check_schedule_legality(schedule)
        assert report.ok

    def test_missing_frame_buffer_flagged_by_both_checkers(self):
        schedule = self._schedule()
        schedule.frame_buffers = {}
        violations = frame_buffer_violations(schedule)
        assert violations and all(v[0] == "FB" for v in violations)
        assert not check_schedule_legality(schedule).ok
        assert not simulate_schedule(schedule).ok

    def test_shallow_frame_buffer_flagged(self):
        schedule = self._schedule()
        config = schedule.frame_buffers["F0"]
        schedule.frame_buffers = {
            "F0": FrameBufferConfig(
                producer=config.producer,
                image_width=config.image_width,
                image_height=config.image_height,
                depth=0,
                spec=config.spec,
            )
        }
        assert any(v[0] == "FB" for v in frame_buffer_violations(schedule))

    def test_geometry_mismatch_flagged(self):
        schedule = self._schedule()
        config = schedule.frame_buffers["F0"]
        schedule.frame_buffers = {
            "F0": FrameBufferConfig(
                producer=config.producer,
                image_width=config.image_width // 2,
                image_height=config.image_height,
                depth=config.depth,
                spec=config.spec,
            )
        }
        assert any(v[0] == "FB" for v in frame_buffer_violations(schedule))

    def test_spatial_schedules_unaffected(self):
        target = CompileTarget(
            dag=build_chain(), image_width=TEST_WIDTH, image_height=TEST_HEIGHT
        )
        schedule = compile_target(target).schedule
        assert frame_buffer_violations(schedule) == []
