"""Unit tests for the HTTP wire codec: lossless target round-trips."""

import json

import pytest

from repro.algorithms import ALGORITHM_NAMES, build_algorithm
from repro.api import CompileTarget
from repro.core.scheduler import SchedulerOptions
from repro.dsl import ast
from repro.memory.spec import asic_fifo, asic_single_port, spartan7_bram
from repro.service.wire import (
    WIRE_FORMAT_VERSION,
    WireFormatError,
    batch_result_to_wire,
    dag_from_wire,
    dag_to_wire,
    expr_from_wire,
    expr_to_wire,
    result_to_wire,
    target_from_wire,
    target_to_wire,
)

from tests.conftest import (
    TEST_HEIGHT,
    TEST_WIDTH,
    build_chain,
    build_paper_example,
    build_virtual_reader,
)

W, H = TEST_WIDTH, TEST_HEIGHT


def _round_trip(target: CompileTarget) -> CompileTarget:
    """Encode -> JSON text -> decode, exactly as the HTTP layer does."""
    return target_from_wire(json.loads(json.dumps(target_to_wire(target))))


class TestTargetRoundTrip:
    """Property over the whole algorithm catalog: wire encoding is lossless."""

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_catalog_fingerprints_survive(self, name):
        target = CompileTarget(build_algorithm(name), image_width=W, image_height=H)
        restored = _round_trip(target)
        assert restored.fingerprint == target.fingerprint
        assert restored.dag.canonical_form() == target.dag.canonical_form()
        assert restored.resolution == target.resolution
        assert restored.memory_spec == target.memory_spec
        assert restored.options == target.options
        assert restored.generator == target.generator

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_catalog_structure_survives(self, name):
        target = CompileTarget(build_algorithm(name), image_width=W, image_height=H)
        restored = _round_trip(target)
        assert restored.dag.stage_names() == target.dag.stage_names()
        for stage in target.dag.stages():
            twin = restored.dag.stage(stage.name)
            assert (twin.is_input, twin.is_output) == (stage.is_input, stage.is_output)
            assert str(twin.expression) == str(stage.expression)
        assert [
            (e.producer, e.consumer, e.window) for e in restored.dag.edges()
        ] == [(e.producer, e.consumer, e.window) for e in target.dag.edges()]

    @pytest.mark.parametrize(
        "spec", [asic_single_port(), asic_fifo(), spartan7_bram(ports=1)]
    )
    def test_memory_spec_variants(self, spec):
        target = CompileTarget(
            build_chain(3), image_width=W, image_height=H, memory_spec=spec
        )
        restored = _round_trip(target)
        assert restored.memory_spec == spec
        assert restored.fingerprint == target.fingerprint

    def test_options_label_metadata_generator_survive(self):
        options = SchedulerOptions(
            ports=1,
            coalescing=True,
            coalescing_policy="all",
            per_stage_coalescing={"K1": True, "K2": False},
        )
        target = CompileTarget(
            build_paper_example(),
            image_width=W,
            image_height=H,
            options=options,
            generator="soda",
            label="wire-test",
            metadata={"sweep_id": 7},
        )
        restored = _round_trip(target)
        assert restored.options == target.options
        assert restored.generator == "soda"
        assert restored.label == "wire-test"
        assert restored.metadata == {"sweep_id": 7}
        assert restored.fingerprint == target.fingerprint

    def test_virtual_of_survives_and_keys_the_fingerprint(self):
        target = CompileTarget(build_virtual_reader(), image_width=W, image_height=H)
        restored = _round_trip(target)
        assert restored.dag.stage("K1_v1").virtual_of == "K1"
        assert restored.fingerprint == target.fingerprint
        plain = CompileTarget(build_virtual_reader(None), image_width=W, image_height=H)
        assert plain.fingerprint != target.fingerprint

    def test_to_wire_from_wire_methods_on_target(self):
        target = CompileTarget(build_chain(3), image_width=W, image_height=H)
        assert CompileTarget.from_wire(target.to_wire()).fingerprint == target.fingerprint

    def test_distinct_targets_stay_distinct(self):
        base = CompileTarget(build_paper_example(), image_width=W, image_height=H)
        variants = [
            base,
            base.with_options(coalescing=True),
            base.with_resolution(W * 2, H * 2),
            base.with_generator("darkroom"),
        ]
        fingerprints = {_round_trip(t).fingerprint for t in variants}
        assert len(fingerprints) == len(variants)


class TestExpressionCodec:
    def test_every_node_kind_round_trips(self):
        expr = ast.Call(
            "select",
            (
                ast.BinOp("<", ast.StageRef("K0", -1, 2), ast.Const(4.0)),
                ast.UnaryOp("-", ast.StageRef("K1")),
                ast.Call("clamp", (ast.StageRef("K0"), ast.Const(0.0), ast.Const(1.5))),
            ),
        )
        restored = expr_from_wire(json.loads(json.dumps(expr_to_wire(expr))))
        assert restored == expr
        assert str(restored) == str(expr)

    def test_none_passes_through(self):
        assert expr_to_wire(None) is None
        assert expr_from_wire(None) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(WireFormatError, match="kind"):
            expr_from_wire({"kind": "lambda", "body": 1})

    def test_bad_operator_rejected(self):
        with pytest.raises(WireFormatError, match="binop"):
            expr_from_wire(
                {
                    "kind": "binop",
                    "op": "**",
                    "left": {"kind": "const", "value": 1},
                    "right": {"kind": "const", "value": 2},
                }
            )


class TestMalformedPayloads:
    def _wire(self):
        return target_to_wire(
            CompileTarget(build_chain(3), image_width=W, image_height=H)
        )

    def test_wrong_version_rejected(self):
        wire = self._wire()
        wire["version"] = WIRE_FORMAT_VERSION + 1
        with pytest.raises(WireFormatError, match="version"):
            target_from_wire(wire)

    @pytest.mark.parametrize("field", ["dag", "resolution", "memory_spec", "options"])
    def test_missing_required_field_rejected(self, field):
        wire = self._wire()
        del wire[field]
        with pytest.raises(WireFormatError, match=field):
            target_from_wire(wire)

    def test_non_object_rejected(self):
        with pytest.raises(WireFormatError):
            target_from_wire([1, 2, 3])

    def test_floor_divide_rejected(self):
        wire = self._wire()
        stage = wire["dag"]["stages"][-1]
        stage["expression"] = {
            "kind": "binop",
            "op": "//",
            "left": stage["expression"],
            "right": {"kind": "const", "value": 2},
        }
        with pytest.raises(WireFormatError, match="binop"):
            target_from_wire(wire)

    def test_bad_resolution_rejected(self):
        wire = self._wire()
        wire["resolution"] = [W]
        with pytest.raises(WireFormatError, match="resolution"):
            target_from_wire(wire)

    def test_unknown_option_field_rejected(self):
        wire = self._wire()
        wire["options"]["turbo"] = True
        with pytest.raises(WireFormatError, match="turbo"):
            target_from_wire(wire)

    def test_options_carry_retired_fields_at_fixed_values(self):
        options = self._wire()["options"]
        assert options["backend"] == "auto"
        assert options["disjunction_strategy"] == "bigm"
        assert options["max_subproblems"] == 4096

    @pytest.mark.parametrize(
        "field, value",
        [("backend", "auto"), ("disjunction_strategy", "bigm"), ("max_subproblems", 4096)],
    )
    def test_retired_field_at_fixed_value_decodes(self, field, value):
        wire = self._wire()
        for other in ("backend", "disjunction_strategy", "max_subproblems"):
            del wire["options"][other]
        wire["options"][field] = value
        restored = target_from_wire(wire)
        assert restored.fingerprint == target_from_wire(self._wire()).fingerprint

    @pytest.mark.parametrize(
        "field, value",
        [
            ("backend", "python"),
            ("backend", "highs"),
            ("disjunction_strategy", "enumerate"),
            ("max_subproblems", 8),
            ("max_subproblems", "4096"),
        ],
    )
    def test_retired_field_at_other_value_rejected(self, field, value):
        wire = self._wire()
        wire["options"][field] = value
        with pytest.raises(WireFormatError, match=f"options.{field}"):
            target_from_wire(wire)

    def test_unknown_memory_spec_field_rejected(self):
        wire = self._wire()
        wire["memory_spec"]["latency"] = 3
        with pytest.raises(WireFormatError, match="latency"):
            target_from_wire(wire)

    def test_cyclic_dag_rejected(self):
        wire = dag_to_wire(build_chain(3))
        wire["edges"].append(
            {"producer": "K2", "consumer": "K0", "window": [0, 0, 0, 0]}
        )
        with pytest.raises(WireFormatError):
            dag_from_wire(wire)

    def test_degenerate_window_rejected(self):
        wire = dag_to_wire(build_chain(3))
        wire["edges"][0]["window"] = [1, 0, 0, 0]
        with pytest.raises(WireFormatError):
            dag_from_wire(wire)


class TestResultCodec:
    def test_success_carries_report_summary(self):
        from repro.estimate.report import accelerator_report
        from repro.service import CompileEngine

        target = CompileTarget(
            build_paper_example(), image_width=W, image_height=H, label="paper"
        )
        with CompileEngine(workers=1) as engine:
            result = engine.submit(target)
        wire = json.loads(json.dumps(result_to_wire(result)))
        assert wire["ok"] is True
        assert wire["fingerprint"] == target.fingerprint
        assert wire["label"] == "paper"
        assert wire["source"] == "solver"
        assert wire["seconds"] > 0
        row = accelerator_report(result.accelerator).row()
        assert wire["report"] == json.loads(json.dumps(row))
        assert "error" not in wire

    def test_failure_carries_error_not_report(self):
        from repro.service import CompileEngine

        with CompileEngine(workers=1) as engine:
            result = engine.submit(
                CompileTarget(build_chain(3), image_width=1, image_height=H)
            )
        wire = result_to_wire(result)
        assert wire["ok"] is False
        assert "SchedulingError" in wire["error"]
        assert "report" not in wire

    def test_batch_wire_preserves_order_and_stats(self):
        from repro.service import CompileEngine

        targets = [
            CompileTarget(build_chain(3), image_width=W, image_height=H, label="a"),
            CompileTarget(build_chain(3), image_width=1, image_height=H, label="bad"),
            CompileTarget(build_chain(4), image_width=W, image_height=H, label="b"),
        ]
        with CompileEngine(workers=2) as engine:
            wire = batch_result_to_wire(engine.submit_batch(targets))
        assert [r["label"] for r in wire["results"]] == ["a", "bad", "b"]
        assert [r["ok"] for r in wire["results"]] == [True, False, True]
        assert wire["cache_stats"]["misses"] >= 2
        json.dumps(wire)  # the whole body must be JSON-serializable
