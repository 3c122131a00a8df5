"""Unit tests for the vectorized frame-batch replay (repro.sim.batch)."""

import numpy as np
import pytest

from repro.algorithms import ALGORITHM_NAMES, build_algorithm
from repro.errors import SimulationError
from repro.sim.batch import golden_frames, output_digest, replay_frames

from oracles import replay_frames_loop
from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain, build_paper_example

W, H = TEST_WIDTH, TEST_HEIGHT


class TestGoldenFrames:
    def test_deterministic_for_fixed_seed(self):
        dag = build_chain(2)
        first = golden_frames(dag, W, H, frames=3, seed=7)
        second = golden_frames(dag, W, H, frames=3, seed=7)
        for name in first:
            assert np.array_equal(first[name], second[name])

    def test_seed_changes_frames(self):
        dag = build_chain(2)
        a = golden_frames(dag, W, H, frames=2, seed=0)
        b = golden_frames(dag, W, H, frames=2, seed=1)
        assert any(not np.array_equal(a[name], b[name]) for name in a)

    def test_shape_is_frames_by_height_by_width(self):
        dag = build_chain(2)
        frames = golden_frames(dag, W, H, frames=4, seed=0)
        for stack in frames.values():
            assert stack.shape == (4, H, W)

    def test_rejects_zero_frames(self):
        with pytest.raises(SimulationError):
            golden_frames(build_chain(2), W, H, frames=0)

    def test_rejects_bad_resolution(self):
        with pytest.raises(SimulationError):
            golden_frames(build_chain(2), 0, H)


class TestBatchedReplayParity:
    """The whole-batch NumPy path must be bit-identical to a per-frame loop."""

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_catalog_algorithm_matches_loop(self, name):
        dag = build_algorithm(name)
        batched = replay_frames(dag, W, H, frames=3, seed=11)
        looped = replay_frames_loop(dag, W, H, frames=3, seed=11)
        assert batched.digest == looped.digest
        for output, stack in batched.outputs.items():
            assert np.array_equal(stack, looped.outputs[output])

    def test_paper_example_matches_loop(self):
        dag = build_paper_example()
        batched = replay_frames(dag, W, H, frames=2, seed=0)
        looped = replay_frames_loop(dag, W, H, frames=2, seed=0)
        assert batched.digest == looped.digest

    def test_single_frame_batch(self):
        dag = build_chain(3)
        batched = replay_frames(dag, W, H, frames=1, seed=0)
        assert batched.frames == 1
        assert batched.output().shape == (1, H, W)


class TestOutputDigest:
    def test_digest_is_stable_across_replays(self):
        dag = build_chain(2)
        a = replay_frames(dag, W, H, frames=2, seed=3)
        b = replay_frames(dag, W, H, frames=2, seed=3)
        assert a.digest == b.digest
        assert len(a.digest) == 64  # sha256 hex

    def test_digest_distinguishes_outputs(self):
        dag = build_chain(2)
        a = replay_frames(dag, W, H, frames=2, seed=3)
        b = replay_frames(dag, W, H, frames=2, seed=4)
        assert a.digest != b.digest

    def test_digest_covers_output_names(self):
        values = np.ones((1, 2, 2))
        assert output_digest({"a": values}) != output_digest({"b": values})
