"""Property tests for the RTL simulator: no vacuous passes.

Hypothesis builds small random pipelines (chains with optional skip-edges,
mixed stencil sizes, bare ``prev(n)`` delays and skip-edges into past
frames, any of the four generators), compiles them, and pins three
properties:

* the generated Verilog lints clean and elaborates,
* the RTL simulation of the *solver's* schedule matches the functional
  replay bit-exactly over 3 frames, so ``prev(2)`` reaches history,
* perturbing the schedule's start cycles flips the verdicts — zeroed starts
  make the ``rtl`` digest comparison diverge, and delayed starts push the
  measured cycles/frame past the original schedule's bound so the ``perf``
  predicate fails.  A simulator that always agreed (or a perf check that
  always passed) would fail these.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro import compile_pipeline
from repro.api import CompileTarget
from repro.dsl.builder import PipelineBuilder, window_sum
from repro.rtl import (
    elaborate_design,
    generate_verilog,
    lint_verilog,
    measure_performance,
    rtl_replay,
)
from repro.sim.batch import replay_frames

W, H = 32, 24
GENERATORS = ("imagen", "darkroom", "soda", "fixynn")


#: How a stage reads its predecessor: through a square window of this size,
#: or, for a negative entry ``-n``, as a bare temporal delay ``prev(n)``.
READS = (1, 2, 3, 5, -1, -2)


def random_chain_dag(num_stages: int, reads: list[int], fan_in: list[int], lags: list[int]):
    """A chain with optional skip-edges back to earlier stages.

    Stage ``i`` reads stage ``i - 1`` as ``reads[i - 1]`` says (see
    :data:`READS`); a skip-edge reads its earlier stage ``lags[i - 1]``
    frames back (0: the current frame).
    """
    builder = PipelineBuilder(f"prop-rtl-{num_stages}")
    handles = [builder.input("K0")]
    for index in range(1, num_stages):
        size = reads[index - 1]
        previous = handles[-1]
        if size < 0:
            expr = previous.prev(-size)
        elif size > 1:
            expr = window_sum(previous, size, size)
        else:
            expr = previous(0, 0)
        back = fan_in[index - 1]
        if back > 0 and index - 1 - back >= 0:
            extra = handles[index - 1 - back]
            lag = lags[index - 1]
            expr = expr + (extra.prev(lag) if lag else extra(0, 0))
        handles.append(builder.stage(f"K{index}", expr))
    builder.dag.stage(handles[-1].name).is_output = True
    return builder.dag.validated()


@st.composite
def compiled_schedule(draw):
    num_stages = draw(st.integers(3, 5))
    reads = [draw(st.sampled_from(READS)) for _ in range(num_stages - 1)]
    # Chains of pointwise reads and delays have no window; keep at least one.
    if all(size < 2 for size in reads):
        reads[0] = 3
    fan_in = [draw(st.integers(0, 2)) for _ in range(num_stages - 1)]
    lags = [draw(st.integers(0, 2)) for _ in range(num_stages - 1)]
    generator = draw(st.sampled_from(GENERATORS))
    dag = random_chain_dag(num_stages, reads, fan_in, lags)
    target = CompileTarget(
        dag, image_width=W, image_height=H, generator=generator
    )
    return compile_pipeline(target).schedule


@settings(max_examples=15, deadline=None)
@given(schedule=compiled_schedule())
def test_generated_design_lints_elaborates_and_matches_replay(schedule):
    source = generate_verilog(schedule)
    report = lint_verilog(source)
    assert report.ok, report.errors[:3]
    design = elaborate_design(source, schedule.dag)
    assert set(design.start_cycles) >= set(schedule.start_cycles)
    result = rtl_replay(schedule, frames=3, seed=0, source=source)
    replay = replay_frames(schedule.dag, W, H, frames=3, seed=0)
    assert result.digest == replay.digest


@settings(max_examples=15, deadline=None)
@given(schedule=compiled_schedule())
def test_zeroed_starts_fail_the_rtl_verdict(schedule):
    """Collapsing every start cycle to 0 must make the RTL output diverge."""
    broken = replace(
        schedule, start_cycles={name: 0 for name in schedule.start_cycles}
    )
    result = rtl_replay(broken, frames=1, seed=0)
    replay = replay_frames(schedule.dag, W, H, frames=1, seed=0)
    # This is exactly the `rtl` check's verdict predicate: digest equality.
    assert result.digest != replay.digest, "rtl verdict passed on a broken schedule"


@settings(max_examples=15, deadline=None)
@given(schedule=compiled_schedule(), delay_rows=st.integers(4, 32))
def test_delayed_starts_fail_the_perf_verdict(schedule, delay_rows):
    """Delaying every start pushes achieved cycles/frame past the old bound."""
    bound = schedule.end_to_end_latency_cycles
    delayed = replace(
        schedule,
        start_cycles={
            name: start + delay_rows * W
            for name, start in schedule.start_cycles.items()
        },
    )
    design = elaborate_design(generate_verilog(delayed), delayed.dag)
    perf = measure_performance(design, H, bound_cycles=bound)
    # This is exactly the `perf` check's verdict predicate.
    assert perf["passed"] is False
    assert perf["cycles_per_frame"] > bound
