"""Differential harness: three models of every catalog design must agree.

For every catalog algorithm under all four generators, this suite pins the
three models of one compiled design against each other:

* **functional replay** (``repro.sim.batch.replay_frames``) — the golden
  frame-level semantics of the DAG,
* **schedule event walk** (``repro.sim.cycle.simulate_schedule``) — the
  cycle-level legality model (R1–R3/FB),
* **RTL simulation** (``repro.rtl``) — the elaborated generated Verilog,
  streamed cycle-style over the same seeded frames.

The RTL outputs must match the functional replay bit-exactly, the achieved
cycles/frame must stay within the schedule's bound, and the event walk must
report zero violations.  On top of the cross-model checks, the generated
source bytes and the RTL output digests are pinned in
``tests/data/rtl_digests.json`` (alongside ``regression_2d_pins.json``) so
codegen drift is caught byte-level even when the three models drift together.

Agreement alone can certify a shared wrong answer, so bare temporal delays
(``out = src.prev(n)``, which no catalog stage exercises) are additionally
checked against hand-computed frames in each model separately.  Two small
DAGs whose temporal reads Darkroom routes through relays pin the RTL sim's
frame-buffer lookup, which the catalog never reaches either.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro import compile_pipeline
from repro.algorithms import ALGORITHM_NAMES, build_algorithm
from repro.api import CompileTarget
from repro.dsl import PipelineBuilder
from repro.dsl.builder import window_sum
from repro.rtl import elaborate_design, generate_verilog, measure_performance, rtl_replay
from repro.sim.batch import golden_frames, replay_frames
from repro.sim.cycle import simulate_schedule

from oracles import simulate_design_loop

PINS_PATH = Path(__file__).parent.parent / "data" / "rtl_digests.json"
PINS = json.loads(PINS_PATH.read_text())
META = PINS["_meta"]

GENERATORS = ("imagen", "darkroom", "soda", "fixynn")
COMBOS = [
    (name, generator)
    for name in sorted(n for n in PINS if n != "_meta")
    for generator in GENERATORS
]


def test_pins_cover_the_whole_catalog():
    assert sorted(n for n in PINS if n != "_meta") == sorted(ALGORITHM_NAMES)


@lru_cache(maxsize=None)
def _schedule(name: str, generator: str):
    target = CompileTarget(
        build_algorithm(name),
        image_width=META["image_width"],
        image_height=META["image_height"],
        generator=generator,
    )
    return compile_pipeline(target).schedule


@lru_cache(maxsize=None)
def _source(name: str, generator: str) -> str:
    return generate_verilog(_schedule(name, generator))


@lru_cache(maxsize=None)
def _rtl(name: str, generator: str):
    return rtl_replay(
        _schedule(name, generator),
        frames=META["frames"],
        seed=META["seed"],
        source=_source(name, generator),
    )


@pytest.mark.parametrize("name,generator", COMBOS)
def test_rtl_matches_functional_replay(name, generator):
    """RTL sim ≡ golden replay, bit-exactly, per output array."""
    result = _rtl(name, generator)
    replay = replay_frames(
        _schedule(name, generator).dag,
        META["image_width"],
        META["image_height"],
        frames=META["frames"],
        seed=META["seed"],
    )
    assert result.digest == replay.digest, f"{name}/{generator} RTL output diverged"
    assert sorted(result.outputs) == sorted(replay.outputs)
    for stage, stack in replay.outputs.items():
        assert np.array_equal(result.outputs[stage], stack), f"{name}/{generator}:{stage}"


@pytest.mark.parametrize("name,generator", COMBOS)
def test_cycles_within_schedule_bound(name, generator):
    """Achieved cycles/frame from the RTL run stays within the ILP's bound."""
    schedule = _schedule(name, generator)
    result = _rtl(name, generator)
    bound = schedule.end_to_end_latency_cycles
    assert result.cycles_per_frame <= bound, (
        f"{name}/{generator}: achieved {result.cycles_per_frame} > bound {bound}"
    )
    design = elaborate_design(_source(name, generator), schedule.dag)
    perf = measure_performance(design, schedule.image_height, bound_cycles=bound)
    assert perf["passed"] is True
    assert perf["initiation_interval"] == schedule.image_width * schedule.image_height


@pytest.mark.parametrize("name,generator", COMBOS)
def test_event_walk_reports_no_violations(name, generator):
    """The third model — the schedule event walk — agrees the design is legal."""
    report = simulate_schedule(_schedule(name, generator))
    assert report.ok, f"{name}/{generator}: {report.violations[:3]}"


@pytest.mark.parametrize("name,generator", COMBOS)
def test_rtl_digests_pinned(name, generator):
    """Generated source bytes and RTL output digests match the recorded pins."""
    entry = PINS[name]
    source = _source(name, generator)
    assert (
        hashlib.sha256(source.encode("utf-8")).hexdigest()
        == entry[f"verilog_sha256:{generator}"]
    ), f"{name}/{generator}: generated Verilog bytes moved"
    result = _rtl(name, generator)
    assert result.digest == entry[f"rtl_digest:{generator}"], (
        f"{name}/{generator}: RTL output digest moved"
    )
    assert result.cycles_per_frame == entry[f"cycles_per_frame:{generator}"]


def _bare_delay(frames_back: int):
    builder = PipelineBuilder(f"bare-delay-{frames_back}")
    src = builder.input("src")
    builder.output("out", src.prev(frames_back))
    return builder.build()


@lru_cache(maxsize=None)
def _bare_delay_schedule(frames_back: int, generator: str, width: int, height: int):
    return compile_pipeline(
        CompileTarget(
            _bare_delay(frames_back),
            image_width=width,
            image_height=height,
            generator=generator,
        )
    ).schedule


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("frames_back", [1, 2])
def test_bare_temporal_delay_matches_hand_computed_frames(frames_back, generator):
    """``out = src.prev(n)`` emits frame ``max(0, f - n)`` of ``src`` in every model."""
    width, height, frames = 16, 6, 4
    schedule = _bare_delay_schedule(frames_back, generator, width, height)
    src = golden_frames(schedule.dag, width, height, frames=frames, seed=3)["src"]
    expected = np.stack([src[max(0, f - frames_back)] for f in range(frames)])

    replay = replay_frames(schedule.dag, width, height, frames=frames, seed=3)
    assert np.array_equal(replay.outputs["out"], expected)
    rtl = rtl_replay(schedule, frames=frames, seed=3)
    assert np.array_equal(rtl.outputs["out"], expected)
    design = elaborate_design(generate_verilog(schedule), schedule.dag)
    loop = simulate_design_loop(design, schedule, {"src": src})
    assert np.array_equal(loop.outputs["out"], expected)


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("frames_back", [1, 2])
def test_bare_temporal_delay_is_legal_and_within_bound(frames_back, generator):
    """A bare delay gets a frame buffer ``frames_back`` frames deep, the event
    walk finds no violation, and the RTL keeps the schedule's cycle bound."""
    width, height = 16, 6
    schedule = _bare_delay_schedule(frames_back, generator, width, height)
    (buffer,) = schedule.frame_buffers.values()
    assert buffer.depth == frames_back
    report = simulate_schedule(schedule)
    assert report.ok, report.violations[:3]
    rtl = rtl_replay(schedule, frames=frames_back + 2, seed=3)
    assert rtl.cycles_per_frame <= schedule.end_to_end_latency_cycles


def _relay_holds_deeper_history():
    """Darkroom relays ``src`` to ``out``, and the relay's frame buffer (2
    frames, for ``out``'s ``prev(2)``) is deeper than ``src``'s own (1)."""
    builder = PipelineBuilder("relay-holds-deeper-history")
    src = builder.input("src")
    a = builder.stage("a", src(0, 0) + src.prev(1))
    blur = builder.stage("blur", window_sum(a, 3, 3))
    builder.output("out", blur(0, 0) + src.prev(2))
    return builder.build()


def _relay_of_identity_stage():
    """Darkroom relays the identity stage ``copy`` to ``out``; only the relay
    has a frame buffer, and ``copy`` itself forwards ``src``."""
    builder = PipelineBuilder("relay-of-identity-stage")
    src = builder.input("src")
    copy = builder.stage("copy", src(0, 0))
    blur = builder.stage("blur", window_sum(copy, 3, 3) + src(0, 0))
    builder.output("out", window_sum(blur, 3, 3) + copy.prev(1))
    return builder.build()


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("build", [_relay_holds_deeper_history, _relay_of_identity_stage])
def test_relayed_temporal_reads_match_replay(build, generator):
    """Temporal reads routed through relays come out of the routed frame buffer."""
    width, height, frames = 32, 24, 3
    schedule = compile_pipeline(
        CompileTarget(build(), image_width=width, image_height=height, generator=generator)
    ).schedule
    replay = replay_frames(schedule.dag, width, height, frames=frames, seed=0)
    rtl = rtl_replay(schedule, frames=frames, seed=0)
    assert rtl.digest == replay.digest
    design = elaborate_design(generate_verilog(schedule), schedule.dag)
    inputs = golden_frames(schedule.dag, width, height, frames=frames, seed=0)
    assert simulate_design_loop(design, schedule, inputs).digest == replay.digest
