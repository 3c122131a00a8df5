"""Property test: reserved-table legality == event-walk on random schedules.

``check_schedule_legality`` replaces an O(cycles) event walk with closed-form
R1/R2 tests plus a periodic R3 reservation table.  The property pins the only
contract that matters: for *any* schedule — legal or broken, because start
cycles are randomly perturbed away from the solver's answer — both checkers
report exactly the same set of ``(rule, producer, consumer)`` violation keys.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.api import CompileTarget
from repro.core.compiler import compile_pipeline
from repro.dsl.builder import PipelineBuilder, window_sum
from repro.memory.spec import asic_dual_port, asic_single_port
from repro.sim.cycle import check_schedule_legality, simulate_schedule

W, H = 32, 24


def random_chain_dag(num_stages: int, stencils: list[int], fan_in: list[int]):
    """A chain with optional skip-edges: stage i reads stage i-1 and, when
    ``fan_in[i]`` reaches further back, an earlier stage too."""
    builder = PipelineBuilder(f"prop-{num_stages}")
    handles = [builder.input("K0")]
    for index in range(1, num_stages):
        size = stencils[index - 1]
        expr = (
            window_sum(handles[-1], size, size)
            if size > 1
            else handles[-1](0, 0)
        )
        back = fan_in[index - 1]
        if back > 0 and index - 1 - back >= 0:
            extra = handles[index - 1 - back]
            expr = expr + extra(0, 0)
        handles.append(builder.stage(f"K{index}", expr))
    builder.dag.stage(handles[-1].name).is_output = True
    return builder.dag.validated()


@st.composite
def perturbed_schedule(draw):
    """Compile a random pipeline, then shove its start cycles around."""
    num_stages = draw(st.integers(2, 5))
    stencils = [draw(st.sampled_from([1, 2, 3, 5])) for _ in range(num_stages - 1)]
    fan_in = [draw(st.integers(0, 2)) for _ in range(num_stages - 1)]
    dag = random_chain_dag(num_stages, stencils, fan_in)
    spec = draw(st.sampled_from([asic_dual_port(), asic_single_port()]))
    # Coalesced designs put several lines in one block, so the row phase
    # decides which reads share a block's ports.
    coalescing = draw(st.booleans())
    schedule = compile_pipeline(
        CompileTarget(dag, image_width=W, image_height=H, memory_spec=spec).with_options(
            coalescing=coalescing
        ),
    ).schedule
    # Perturbations biased toward "too early" (negative), which is where the
    # interesting R1/R3 violations live; 0 keeps some legal schedules in play.
    deltas = {
        name: draw(st.sampled_from([0, 0, -1, -W, -(2 * W), -(2 * W + 1), W]))
        for name in schedule.start_cycles
    }
    starts = {
        name: max(0, start + deltas[name])
        for name, start in schedule.start_cycles.items()
    }
    return replace(schedule, start_cycles=starts)


@settings(max_examples=30, deadline=None)
@given(schedule=perturbed_schedule())
def test_reserved_table_agrees_with_event_walk(schedule):
    fast = check_schedule_legality(schedule, max_rows=H)
    walk = simulate_schedule(schedule, max_rows=H, max_violations=1_000_000)
    assert fast.keys() == walk.violation_keys
    assert fast.ok == (not walk.violation_keys)
