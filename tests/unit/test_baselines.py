"""Unit tests for the Darkroom, SODA and FixyNN baseline generators."""

import pytest

from repro.api import CompileTarget
from repro.baselines.base import BASELINE_NAMES, BaselineGenerator
from repro.baselines.darkroom import DarkroomGenerator, linearize_dag
from repro.baselines.fixynn import FixynnGenerator
from repro.baselines.soda import SodaGenerator
from repro.core.compiler import CompiledAccelerator, compile_pipeline
from repro.errors import BaselineError
from repro.memory.spec import asic_dual_port, asic_single_port

from tests.conftest import (
    TEST_HEIGHT,
    TEST_WIDTH,
    build_chain,
    build_paper_example,
    build_two_consumer,
)

W, H = TEST_WIDTH, TEST_HEIGHT


class TestDispatch:
    def test_known_names(self):
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        for name in BASELINE_NAMES:
            accelerator = compile_pipeline(target.with_generator(name))
            assert accelerator.schedule.generator == name

    def test_spec_adaptation_is_idempotent(self):
        """A spec already in the generator's form is used as-is, not renamed."""
        from repro.memory.spec import asic_fifo

        soda = SodaGenerator().generate(build_chain(3), W, H, asic_fifo())
        assert soda.memory_spec.name == "asic-fifo"
        fixynn = FixynnGenerator().generate(build_chain(3), W, H, asic_single_port())
        assert fixynn.memory_spec.name == "asic-sp"
        # ...while a generic dual-port spec is visibly adapted.
        adapted = SodaGenerator().generate(build_chain(3), W, H, asic_dual_port())
        assert adapted.memory_spec.name == "asic-dp-fifo"

    def test_unknown_name(self):
        target = CompileTarget(build_chain(3), image_width=W, image_height=H, generator="halide")
        with pytest.raises(BaselineError):
            compile_pipeline(target)

    @pytest.mark.parametrize(
        "name,spec_name",
        [("darkroom", "asic-dp"), ("soda", "asic-dp-fifo"), ("fixynn", "asic-dp-sp")],
    )
    def test_target_default_spec_is_adapted_dual_port(self, name, spec_name):
        """A target without a spec resolves to dual-port SRAM, which each
        generator adapts to its own buffer form."""
        target = CompileTarget(build_chain(3), image_width=W, image_height=H, generator=name)
        assert compile_pipeline(target).schedule.memory_spec.name == spec_name

    def test_compile_pipeline_runs_the_named_generator(self):
        target = CompileTarget(
            build_paper_example(), image_width=W, image_height=H, generator="darkroom"
        )
        compiled = compile_pipeline(target)
        direct = DarkroomGenerator().generate(target.dag, W, H, target.memory_spec)
        assert isinstance(compiled, CompiledAccelerator)
        assert compiled.schedule.generator == "darkroom"
        assert compiled.schedule.start_cycles == direct.start_cycles
        assert compiled.schedule.total_allocated_bits == direct.total_allocated_bits

    def test_asap_schedule_helper(self):
        starts = BaselineGenerator.asap_schedule(build_chain(3), W)
        assert starts["K0"] == 0
        assert starts["K1"] == 2 * W + 1
        assert starts["K2"] == 4 * W + 2


class TestLinearization:
    def test_single_consumer_graph_unchanged(self):
        dag = build_chain(3)
        linearized = linearize_dag(dag)
        assert len(linearized) == len(dag)
        assert not [s for s in linearized.stages() if s.metadata.get("dummy")]

    def test_multi_consumer_gets_relay(self):
        dag = build_paper_example()
        linearized = linearize_dag(dag)
        dummies = [s for s in linearized.stages() if s.metadata.get("dummy")]
        assert len(dummies) == 1
        relay = dummies[0]
        # The relay reads K0 with the retained consumer's (K1's) 3x3 pattern...
        assert linearized.edge("K0", relay.name).window.height == 3
        # ...and K2 now reads its original 2x2 window from the relay.
        assert linearized.edge(relay.name, "K2").window.height == 2
        # K2 no longer reads K0 directly.
        assert "K2" not in linearized.consumers_of("K0")

    def test_linearized_graph_is_single_consumer_effectively(self):
        dag = build_two_consumer()
        linearized = linearize_dag(dag)
        for producer in linearized.stage_names():
            consumers = linearized.consumers_of(producer)
            if len(consumers) > 1:
                # Multiple consumers must all read the same window (pattern-identical).
                windows = {linearized.edge(producer, c).window.normalized() for c in consumers}
                assert len(windows) == 1

    def test_relay_count_scales_with_extra_consumers(self):
        dag = build_two_consumer()
        linearized = linearize_dag(dag)
        dummies = [s for s in linearized.stages() if s.metadata.get("dummy")]
        assert len(dummies) == 1


class TestDarkroom:
    def test_rejects_single_port(self):
        with pytest.raises(BaselineError):
            DarkroomGenerator().generate(build_chain(3), W, H, asic_single_port())

    def test_matches_imagen_on_single_consumer(self):
        from repro.core.scheduler import schedule_pipeline

        dag = build_chain(4)
        darkroom = DarkroomGenerator().generate(dag, W, H)
        imagen = schedule_pipeline(dag, W, H, asic_dual_port())
        assert darkroom.total_blocks == imagen.total_blocks

    def test_multi_consumer_costs_more_than_imagen(self):
        from repro.core.scheduler import schedule_pipeline

        dag = build_paper_example()
        darkroom = DarkroomGenerator().generate(dag, W, H)
        imagen = schedule_pipeline(dag, W, H, asic_dual_port())
        assert darkroom.total_allocated_bits >= imagen.total_allocated_bits

    def test_stats_record_dummies(self):
        schedule = DarkroomGenerator().generate(build_paper_example(), W, H)
        assert len(schedule.solver_stats["dummy_stages"]) == 1


class TestSoda:
    def test_fifo_style_buffers(self):
        schedule = SodaGenerator().generate(build_chain(3), W, H)
        for config in schedule.line_buffers.values():
            assert config.style == "fifo"
            assert config.dff_pixels > 0

    def test_reuse_lines_are_stencil_minus_one(self):
        schedule = SodaGenerator().generate(build_chain(3, stencil=3), W, H)
        assert schedule.line_buffers["K0"].lines == 2

    def test_splitting_on_multi_consumer(self):
        single = SodaGenerator().generate(build_chain(3), W, H)
        multi = SodaGenerator().generate(build_two_consumer(), W, H)
        assert multi.line_buffers["K0"].fifo_chains == 2
        assert multi.line_buffers["K0"].num_blocks == 2 * single.line_buffers["K0"].num_blocks

    def test_rejects_single_port(self):
        with pytest.raises(BaselineError):
            SodaGenerator().generate(build_chain(3), W, H, asic_single_port())

    def test_smallest_sram_capacity(self):
        from repro.core.scheduler import schedule_pipeline

        dag = build_chain(4, stencil=3)
        soda = SodaGenerator().generate(dag, W, H)
        imagen = schedule_pipeline(dag, W, H, asic_dual_port())
        assert soda.total_data_bits < imagen.total_data_bits


class TestFixynn:
    def test_single_port_spec_forced(self):
        schedule = FixynnGenerator().generate(build_chain(3), W, H, asic_dual_port())
        assert schedule.memory_spec.ports == 1
        assert schedule.generator == "fixynn"

    def test_uses_more_memory_than_imagen(self):
        from repro.core.scheduler import schedule_pipeline

        dag = build_chain(4)
        fixynn = FixynnGenerator().generate(dag, W, H)
        imagen = schedule_pipeline(dag, W, H, asic_dual_port())
        assert fixynn.total_allocated_bits > imagen.total_allocated_bits

    def test_handles_multi_consumer(self):
        schedule = FixynnGenerator().generate(build_paper_example(), W, H)
        assert schedule.delay("K0", "K1") >= 3 * W
