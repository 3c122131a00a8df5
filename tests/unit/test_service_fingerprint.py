"""Unit tests for content-addressed compile fingerprints."""

import pytest

from repro.api import CompileTarget
from repro.api.fingerprint import (
    RETIRED_OPTIONS,
    compile_fingerprint,
    dag_fingerprint,
    normalize_options,
)
from repro.core.scheduler import SchedulerOptions
from repro.dsl.builder import PipelineBuilder, window_sum
from repro.ir.dag import PipelineDAG, Stage
from repro.ir.stencil import StencilWindow
from repro.memory.spec import asic_dual_port, asic_single_port

from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_paper_example

W, H = TEST_WIDTH, TEST_HEIGHT


def _fp(dag, *, width=W, height=H, spec=None, options=None):
    return compile_fingerprint(
        CompileTarget(dag, image_width=width, image_height=height, memory_spec=spec, options=options)
    )


class TestStability:
    def test_identical_rebuilds_share_fingerprint(self):
        assert _fp(build_paper_example()) == _fp(build_paper_example())

    def test_stage_insertion_order_is_irrelevant(self):
        window = StencilWindow.from_extent(3, 3)
        forward = PipelineDAG("p")
        forward.add_stage(Stage("K0", is_input=True))
        forward.add_stage(Stage("K1", is_output=True))
        forward.add_edge("K0", "K1", window)
        backward = PipelineDAG("p")
        backward.add_stage(Stage("K1", is_output=True))
        backward.add_stage(Stage("K0", is_input=True))
        backward.add_edge("K0", "K1", window)
        assert dag_fingerprint(forward) == dag_fingerprint(backward)

    def test_display_name_is_irrelevant(self):
        window = StencilWindow.from_extent(3, 3)

        def build(name):
            dag = PipelineDAG(name)
            dag.add_stage(Stage("K0", is_input=True))
            dag.add_stage(Stage("K1", is_output=True))
            dag.add_edge("K0", "K1", window)
            return dag

        assert dag_fingerprint(build("alpha")) == dag_fingerprint(build("beta"))

    def test_free_form_stage_metadata_is_irrelevant(self):
        plain = build_paper_example()
        tagged = build_paper_example()
        tagged.stage("K1").metadata["note"] = "annotated"
        assert dag_fingerprint(plain) == dag_fingerprint(tagged)

    def test_coalescing_off_hides_policy_and_per_stage(self):
        baseline = SchedulerOptions()
        sweep_all_dp = SchedulerOptions(
            coalescing=False,
            coalescing_policy="all",
            per_stage_coalescing={"K0": False, "K1": False},
        )
        dag = build_paper_example()
        assert _fp(dag, options=baseline) == _fp(dag, options=sweep_all_dp)
        assert normalize_options(baseline) == normalize_options(sweep_all_dp)


class TestSensitivity:
    def test_resolution_changes_fingerprint(self):
        dag = build_paper_example()
        assert _fp(dag, width=W) != _fp(dag, width=2 * W)
        assert _fp(dag, height=H) != _fp(dag, height=2 * H)

    def test_memory_spec_changes_fingerprint(self):
        dag = build_paper_example()
        assert _fp(dag, spec=asic_dual_port()) != _fp(dag, spec=asic_single_port())
        assert _fp(dag, spec=asic_dual_port(32)) != _fp(dag, spec=asic_dual_port(64))

    def test_options_change_fingerprint(self):
        dag = build_paper_example()
        base = _fp(dag)
        assert _fp(dag, options=SchedulerOptions(coalescing=True)) != base
        assert _fp(dag, options=SchedulerOptions(pruning=False)) != base

    def test_retired_strategy_is_gone_but_still_hashed_at_its_fixed_value(self):
        """``disjunction_strategy="enumerate"`` no longer exists; the retired
        fields enter every fingerprint at their fixed values instead."""
        with pytest.raises(TypeError):
            SchedulerOptions(disjunction_strategy="enumerate")
        normalized = normalize_options(SchedulerOptions())
        assert {key: normalized[key] for key in RETIRED_OPTIONS} == {
            "ports": None, "backend": "auto", "disjunction_strategy": "bigm",
            "max_subproblems": 4096,
        }

    def test_per_stage_choice_matters_when_coalescing(self):
        dag = build_paper_example()
        on = SchedulerOptions(
            coalescing=True, coalescing_policy="all", per_stage_coalescing={"K0": True}
        )
        off = SchedulerOptions(
            coalescing=True, coalescing_policy="all", per_stage_coalescing={"K0": False}
        )
        assert _fp(dag, options=on) != _fp(dag, options=off)

    def test_stencil_window_changes_fingerprint(self):
        def build(stencil):
            builder = PipelineBuilder("p")
            handle = builder.input("K0")
            builder.output("K1", window_sum(handle, stencil, stencil))
            return builder.build()

        assert dag_fingerprint(build(3)) != dag_fingerprint(build(5))

    def test_expression_changes_fingerprint(self):
        def build(scale):
            builder = PipelineBuilder("p")
            handle = builder.input("K0")
            builder.output("K1", handle(0, 0) * scale)
            return builder.build()

        assert dag_fingerprint(build(2.0)) != dag_fingerprint(build(3.0))

    def test_io_flags_change_fingerprint(self):
        window = StencilWindow.from_extent(3, 3)

        def build(is_output):
            dag = PipelineDAG("p")
            dag.add_stage(Stage("K0", is_input=True))
            dag.add_stage(Stage("K1", is_output=is_output))
            dag.add_edge("K0", "K1", window)
            return dag

        assert dag_fingerprint(build(True)) != dag_fingerprint(build(False))
