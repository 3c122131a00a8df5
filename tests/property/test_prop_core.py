"""Property-based tests of the scheduler on randomly generated pipeline DAGs.

The invariant under test is the paper's central claim: for any pipeline the
generator produces a schedule that (a) satisfies every data dependency, (b)
never over-subscribes a memory block (verified independently by the
cycle-level simulator), and (c) sustains one pixel per cycle.
"""

from __future__ import annotations

from hypothesis import Phase, given, settings, strategies as st

from repro.api import CompileTarget
from repro.core.compiler import compile_pipeline
from repro.core.constraints import data_dependency_constraints
from repro.dsl.builder import PipelineBuilder, window_sum
from repro.ir.dag import PipelineDAG
from repro.ir.stencil import StencilWindow
from repro.memory.spec import asic_dual_port, asic_single_port
from repro.sim.cycle import simulate_schedule

W, H = 32, 24


@st.composite
def random_pipeline(draw) -> PipelineDAG:
    """A random DAG of 3-8 stages with stencil heights 1-5 and fan-out up to 3."""
    num_stages = draw(st.integers(3, 8))
    builder = PipelineBuilder(f"random-{num_stages}")
    handles = [builder.input("K0")]
    for index in range(1, num_stages):
        # Pick 1 or 2 producers among the existing stages (favouring recent ones).
        num_producers = draw(st.integers(1, min(2, len(handles))))
        producer_indices = sorted(
            draw(
                st.lists(
                    st.integers(0, len(handles) - 1),
                    min_size=num_producers,
                    max_size=num_producers,
                    unique=True,
                )
            )
        )
        expr = None
        for producer_index in producer_indices:
            producer = handles[producer_index]
            size = draw(st.sampled_from([1, 2, 3, 5]))
            term = window_sum(producer, size, size) if size > 1 else producer(0, 0)
            expr = term if expr is None else expr + term
        handles.append(builder.stage(f"K{index}", expr))
    builder.dag.stage(handles[-1].name).is_output = True
    dag = builder.dag
    # Make sure every intermediate stage feeds the output (validation requires
    # it); dangling stages get a pointwise edge into the output stage.
    last = handles[-1].name
    for handle in handles[1:-1]:
        if not dag.consumers_of(handle.name):
            dag.add_edge(handle.name, last, StencilWindow.point())
    return dag.validated()


class TestRandomPipelines:
    @settings(max_examples=10, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(random_pipeline())
    def test_dual_port_schedules_are_legal(self, dag):
        schedule = compile_pipeline(CompileTarget(dag, image_width=W, image_height=H)).schedule
        for dep in data_dependency_constraints(dag, W):
            assert schedule.delay(dep.producer, dep.consumer) >= dep.min_delay
        report = simulate_schedule(schedule)
        assert report.ok, report.violations

    @settings(max_examples=8, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(random_pipeline())
    def test_single_port_schedules_are_legal(self, dag):
        schedule = compile_pipeline(
            CompileTarget(dag, image_width=W, image_height=H, memory_spec=asic_single_port()),
        ).schedule
        report = simulate_schedule(schedule)
        assert report.ok, report.violations

    @settings(max_examples=8, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(random_pipeline())
    def test_coalesced_schedules_are_legal_and_never_larger(self, dag):
        plain = compile_pipeline(CompileTarget(dag, image_width=W, image_height=H)).schedule
        coalesced = compile_pipeline(
            CompileTarget(
                dag, image_width=W, image_height=H, memory_spec=asic_dual_port()
            ).with_options(coalescing=True),
        ).schedule
        assert coalesced.total_allocated_bits <= plain.total_allocated_bits
        report = simulate_schedule(coalesced)
        assert report.ok, report.violations

    @settings(max_examples=8, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.generate))
    @given(random_pipeline())
    def test_throughput_is_one_pixel_per_cycle(self, dag):
        schedule = compile_pipeline(CompileTarget(dag, image_width=W, image_height=H)).schedule
        report = simulate_schedule(schedule)
        assert report.steady_state_throughput > 0.9
