"""Property-based round-trip tests for the target wire codec and the
disk cache's schedule codec.

The invariants that make disk-persistable designs safe: an arbitrary
physical line-buffer configuration survives ``to_payload``/``from_payload``
bit-identically, and any schedule a real generator (ImaGen or a baseline)
produces survives :func:`repro.service.cache.serialize_schedule` /
:func:`repro.service.cache.deserialize_schedule` with identical reports:
decisions-only for ImaGen (line buffers re-derived on load), line buffers
embedded for the baselines, frame buffers re-derived for every generator.
A payload that embeds ImaGen's line buffers too restores them verbatim.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.target import CompileTarget
from repro.core.compiler import compile_target
from repro.dsl.builder import PipelineBuilder, temporal_average, window_sum
from repro.estimate.report import accelerator_report
from repro.memory.linebuffer import BlockAssignment, FrameBufferConfig, LineBufferConfig
from repro.memory.spec import MemorySpec
from repro.service.cache import deserialize_schedule, serialize_schedule
from repro.service.wire import target_from_wire, target_to_wire

W, H = 32, 24


# ---------------------------------------------------------------------------
# Arbitrary line-buffer configurations
# ---------------------------------------------------------------------------
@st.composite
def memory_specs(draw) -> MemorySpec:
    style = draw(st.sampled_from(["sram", "fifo"]))
    return MemorySpec(
        name=draw(st.sampled_from(["asic-dp", "asic-sp", "asic-fifo", "bram-x"])),
        block_bits=draw(st.integers(1024, 64 * 1024)),
        ports=draw(st.integers(1, 2)),
        pixel_bits=draw(st.sampled_from([8, 12, 16])),
        style=style,
        allow_coalescing=draw(st.booleans()) and style != "fifo",
    )


@st.composite
def block_assignments(draw) -> BlockAssignment:
    return BlockAssignment(
        index=draw(st.integers(0, 63)),
        line_slots=tuple(
            draw(st.lists(st.integers(0, 15), min_size=0, max_size=4, unique=True))
        ),
        segment=draw(st.integers(0, 3)),
        used_bits=draw(st.integers(0, 64 * 1024)),
    )


@st.composite
def line_buffer_configs(draw) -> LineBufferConfig:
    readers = draw(
        st.dictionaries(
            st.sampled_from(["K1", "K2", "K3", "out"]), st.integers(1, 7), max_size=3
        )
    )
    return LineBufferConfig(
        producer=draw(st.sampled_from(["K0", "K1", "blur", "gradient"])),
        image_width=draw(st.integers(8, 1920)),
        lines=draw(st.integers(0, 12)),
        spec=draw(memory_specs()),
        coalesce_factor=draw(st.integers(1, 4)),
        style=draw(st.sampled_from(["sram", "fifo", "registers"])),
        blocks=draw(st.lists(block_assignments(), max_size=6)),
        dff_pixels=draw(st.integers(0, 512)),
        fifo_chains=draw(st.integers(1, 4)),
        reader_heights=readers,
    )


class TestLineBufferPayloadRoundTrip:
    @given(config=line_buffer_configs())
    @settings(max_examples=120, deadline=None)
    def test_payload_round_trip_is_lossless(self, config):
        payload = json.loads(json.dumps(config.to_payload()))  # force JSON types
        restored = LineBufferConfig.from_payload(payload)
        assert restored == config
        assert restored.to_payload() == config.to_payload()
        # The derived physical quantities the estimators consume agree too.
        assert restored.allocated_bits == config.allocated_bits
        assert restored.data_bits == config.data_bits
        assert restored.num_blocks == config.num_blocks

    @given(config=line_buffer_configs())
    @settings(max_examples=40, deadline=None)
    def test_unknown_spec_fields_rejected(self, config):
        payload = config.to_payload()
        payload["spec"] = dict(payload["spec"], surprise=1)
        try:
            LineBufferConfig.from_payload(payload)
        except ValueError:
            return
        raise AssertionError("payload with unknown spec field must not decode")


# ---------------------------------------------------------------------------
# Real generator schedules
# ---------------------------------------------------------------------------
def _random_chain_dag(
    num_stages: int, stencil: int, fan_out: bool, temporal_depth: int = 0
):
    builder = PipelineBuilder(
        f"wire-{num_stages}-{stencil}-{int(fan_out)}-{temporal_depth}"
    )
    handle = builder.input("K0")
    first = handle
    for index in range(1, num_stages):
        handle = builder.stage(f"K{index}", window_sum(handle, stencil, stencil))
    if fan_out and num_stages >= 3:
        # A multi-consumer join exercises SODA's FIFO splitting on round-trip.
        handle = builder.stage(
            "join", window_sum(first, stencil, stencil) + window_sum(handle, 1, 1)
        )
    if temporal_depth:
        handle = builder.stage(
            "taccum", temporal_average(handle, temporal_depth + 1)
        )
    builder.dag.stage(handle.name).is_output = True
    return builder.dag.validated()


@st.composite
def generator_schedules(draw, temporal: bool = False):
    generator = draw(st.sampled_from(["imagen", "darkroom", "soda", "fixynn"]))
    num_stages = draw(st.integers(2, 5))
    stencil = draw(st.sampled_from([1, 3, 5]))
    fan_out = draw(st.booleans())
    temporal_depth = draw(st.integers(1, 3)) if temporal else 0
    dag = _random_chain_dag(num_stages, stencil, fan_out, temporal_depth)
    target = CompileTarget(
        dag, image_width=W, image_height=H, generator=generator
    )
    return compile_target(target).schedule, target


def _payload(schedule, embed: bool) -> dict:
    """The disk cache's payload; with ``embed`` it carries every generator's
    line buffers, as the baselines' payloads always do."""
    payload = serialize_schedule(schedule)
    if embed:
        payload["line_buffers"] = {
            name: config.to_payload() for name, config in schedule.line_buffers.items()
        }
    return payload


def _round_trip(schedule, dag, embed: bool):
    """Serialize through JSON and back, as a disk-cache entry would be."""
    payload = _payload(schedule, embed)
    return deserialize_schedule(json.loads(json.dumps(payload)), dag)


#: ``derived`` is the disk cache's own payload (decisions-only for ImaGen,
#: line buffers re-derived on load); ``embedded`` carries them for every
#: generator and is restored verbatim.
LINE_BUFFERS = pytest.mark.parametrize("embed", [False, True], ids=["derived", "embedded"])


def _assert_same_design(restored, schedule):
    """Reports, start cycles and every buffer match."""
    assert restored.generator == schedule.generator
    assert restored.start_cycles == schedule.start_cycles
    assert restored.coalesce_factors == schedule.coalesce_factors
    assert set(restored.line_buffers) == set(schedule.line_buffers)
    for name, config in schedule.line_buffers.items():
        assert restored.line_buffers[name].to_payload() == config.to_payload()
    assert set(restored.frame_buffers) == set(schedule.frame_buffers)
    for name, config in schedule.frame_buffers.items():
        assert restored.frame_buffers[name] == config
    assert accelerator_report(restored).row() == accelerator_report(schedule).row()


class TestGeneratorScheduleRoundTrip:
    @LINE_BUFFERS
    @given(data=generator_schedules())
    @settings(max_examples=25, deadline=None)
    def test_schedule_round_trip_preserves_reports(self, data, embed):
        schedule, target = data
        restored = _round_trip(schedule, target.dag, embed)
        _assert_same_design(restored, schedule)

    @LINE_BUFFERS
    @given(data=generator_schedules())
    @settings(max_examples=10, deadline=None)
    def test_payload_is_json_serializable(self, data, embed):
        schedule, _ = data
        payload = _payload(schedule, embed)
        assert json.loads(json.dumps(payload)) == payload
        embedded = embed or schedule.generator not in ("imagen", "imagen+lc")
        assert ("line_buffers" in payload) == embedded


# ---------------------------------------------------------------------------
# Target payload v1 <-> v2 compatibility
# ---------------------------------------------------------------------------
class TestTargetPayloadVersions:
    @given(data=generator_schedules())
    @settings(max_examples=15, deadline=None)
    def test_spatial_targets_emit_v1_payloads(self, data):
        """A spatial target's payload is indistinguishable from a v1 build's:
        version 1, 4-element windows, no dt keys anywhere."""
        _, target = data
        wire = json.loads(json.dumps(target_to_wire(target)))
        assert wire["version"] == 1
        assert all(len(edge["window"]) == 4 for edge in wire["dag"]["edges"])
        assert '"dt"' not in json.dumps(wire)
        assert target_from_wire(wire).fingerprint == target.fingerprint

    @given(data=generator_schedules(temporal=True))
    @settings(max_examples=15, deadline=None)
    def test_temporal_targets_round_trip_as_v2(self, data):
        schedule, target = data
        wire = json.loads(json.dumps(target_to_wire(target)))
        assert wire["version"] == 2
        assert any(len(edge["window"]) == 6 for edge in wire["dag"]["edges"])
        restored = target_from_wire(wire)
        assert restored.fingerprint == target.fingerprint
        assert restored.dag.canonical_form() == target.dag.canonical_form()

    @LINE_BUFFERS
    @given(data=generator_schedules(temporal=True))
    @settings(max_examples=10, deadline=None)
    def test_temporal_schedule_round_trip_preserves_frame_buffers(self, data, embed):
        schedule, target = data
        restored = _round_trip(schedule, target.dag, embed)
        assert restored.frame_buffers == schedule.frame_buffers
        assert all(
            isinstance(config, FrameBufferConfig)
            for config in restored.frame_buffers.values()
        )
        _assert_same_design(restored, schedule)
