"""Service surface of the temporal IR: wire v2, cache round-trip, verify."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.algorithms import TEMPORAL_ALGORITHM_NAMES, build_algorithm
from repro.api.target import CompileTarget
from repro.core.compiler import compile_target
from repro.service.cache import deserialize_schedule, serialize_schedule
from repro.service.engine import CompileEngine
from repro.service.verify import VerifyEngine, VerifyRequest
from repro.service.wire import (
    READABLE_WIRE_VERSIONS,
    WIRE_FORMAT_VERSION,
    WireFormatError,
    target_from_wire,
    target_to_wire,
)
from repro.sim.batch import replay_frames

from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain

GENERATORS = ("imagen", "soda", "darkroom", "fixynn")


def temporal_target(name: str = "frame-diff-m") -> CompileTarget:
    return CompileTarget(
        dag=build_algorithm(name), image_width=TEST_WIDTH, image_height=TEST_HEIGHT
    )


class TestWireV2:
    def test_version_constants(self):
        assert WIRE_FORMAT_VERSION == 2
        assert READABLE_WIRE_VERSIONS == (1, 2)

    def test_spatial_targets_stamp_v1(self):
        target = CompileTarget(
            dag=build_chain(), image_width=TEST_WIDTH, image_height=TEST_HEIGHT
        )
        wire = target_to_wire(target)
        assert wire["version"] == 1
        assert '"dt"' not in json.dumps(wire)
        assert all(len(edge["window"]) == 4 for edge in wire["dag"]["edges"])

    @pytest.mark.parametrize("name", TEMPORAL_ALGORITHM_NAMES)
    def test_temporal_targets_stamp_v2(self, name):
        wire = target_to_wire(temporal_target(name))
        assert wire["version"] == 2
        assert any(len(edge["window"]) == 6 for edge in wire["dag"]["edges"])
        decoded = target_from_wire(wire)
        assert decoded.dag.is_temporal()
        assert decoded.fingerprint == temporal_target(name).fingerprint

    def test_v1_payload_still_decodes(self):
        target = CompileTarget(
            dag=build_chain(), image_width=TEST_WIDTH, image_height=TEST_HEIGHT
        )
        wire = target_to_wire(target)
        assert wire["version"] == 1  # i.e. this *is* a v1 payload
        decoded = target_from_wire(json.loads(json.dumps(wire)))
        assert decoded.fingerprint == target.fingerprint

    def test_unknown_version_rejected(self):
        wire = target_to_wire(temporal_target())
        wire["version"] = max(READABLE_WIRE_VERSIONS) + 1
        with pytest.raises(WireFormatError, match="version"):
            target_from_wire(wire)

    def test_bad_window_length_rejected(self):
        wire = target_to_wire(temporal_target())
        wire["dag"]["edges"][0]["window"] = [0, 0, 0, 0, -1]
        with pytest.raises(WireFormatError, match="window"):
            target_from_wire(wire)


class TestTemporalCacheRoundTrip:
    @pytest.mark.parametrize("generator", GENERATORS)
    def test_frame_buffers_rederived_identically(self, generator):
        target = temporal_target().with_generator(generator)
        schedule = compile_target(target).schedule
        assert schedule.frame_buffers
        restored = deserialize_schedule(serialize_schedule(schedule), schedule.dag)
        assert restored.frame_buffers == schedule.frame_buffers
        assert restored.total_allocated_bits == schedule.total_allocated_bits


class TestTemporalGoldenRoundTrip:
    @pytest.mark.parametrize("name", TEMPORAL_ALGORITHM_NAMES)
    @pytest.mark.parametrize("generator", GENERATORS)
    def test_compiled_dag_replays_identically(self, name, generator):
        """Generator rewrites (relays, linearization) must not change pixels."""
        target = temporal_target(name).with_generator(generator)
        compiled = compile_target(target)
        reference = replay_frames(target.dag, 32, 24, frames=4, seed=1)
        rewritten = replay_frames(compiled.schedule.dag, 32, 24, frames=4, seed=1)
        assert rewritten.digest == reference.digest


class TestTemporalVerifyService:
    @pytest.fixture
    def verify_engine(self):
        engine = CompileEngine(workers=1)
        yield VerifyEngine(engine)
        engine.shutdown()

    @pytest.mark.parametrize("name", TEMPORAL_ALGORITHM_NAMES)
    def test_golden_and_cycle_pass(self, verify_engine, name):
        result = verify_engine.submit(
            VerifyRequest(target=temporal_target(name), check="both", frames=3)
        )
        assert result.ok, result.error
        assert result.passed
        assert result.golden["max_abs_error"] == 0.0
        assert result.cycle["passed"]

    def test_temporal_verify_over_http(self, tmp_path):
        """POST /v1/verify accepts a v2 target payload end to end."""
        from repro.service import ServiceClient, start_server

        engine = CompileEngine(workers=2, cache_dir=tmp_path / "c")
        server = start_server(engine)
        try:
            with ServiceClient(port=server.port) as client:
                verdict = client.verify(temporal_target(), check="both", frames=3)
        finally:
            server.stop()
            engine.shutdown()
        assert verdict["passed"] is True
        assert verdict["golden"]["max_abs_error"] == 0.0
        assert verdict["cycle"]["passed"] is True

    def test_pinned_digest_round_trips_through_verify(self, verify_engine):
        target = temporal_target()
        expected = replay_frames(
            target.dag, TEST_WIDTH, TEST_HEIGHT, frames=2, seed=0
        ).digest
        result = verify_engine.submit(
            VerifyRequest(target=target, check="golden", expected_digest=expected)
        )
        assert result.passed
        mismatched = verify_engine.submit(
            VerifyRequest(target=target, check="golden", expected_digest="0" * 64)
        )
        assert mismatched.passed is False
        assert mismatched.golden["expected_match"] is False


class TestBareDelayVerify:
    """``out = src.prev(1)`` passes every verify check, pinned to hand-computed frames."""

    @pytest.mark.parametrize("generator", GENERATORS)
    def test_every_check_passes(self, generator):
        from repro.dsl import PipelineBuilder
        from repro.sim.batch import golden_frames, output_digest

        builder = PipelineBuilder("bare-delay-1")
        builder.output("out", builder.input("src").prev(1))
        target = CompileTarget(
            dag=builder.build(),
            image_width=TEST_WIDTH,
            image_height=TEST_HEIGHT,
            generator=generator,
        )
        frames = 3
        src = golden_frames(target.dag, TEST_WIDTH, TEST_HEIGHT, frames=frames)["src"]
        delayed = np.stack([src[max(0, f - 1)] for f in range(frames)])

        engine = CompileEngine(workers=1)
        verify_engine = VerifyEngine(engine)
        try:
            golden = verify_engine.submit(
                VerifyRequest(
                    target=target,
                    check="both",
                    frames=frames,
                    expected_digest=output_digest({"out": delayed}),
                )
            )
            assert golden.passed, golden.error
            assert golden.golden["expected_match"] is True
            for check in ("rtl", "perf"):
                result = verify_engine.submit(
                    VerifyRequest(target=target, check=check, frames=frames)
                )
                assert result.passed, (check, result.error)
        finally:
            engine.shutdown()
