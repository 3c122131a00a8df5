"""Unit tests for the DSL expression AST and its NumPy evaluation."""

import numpy as np
import pytest

from repro.dsl import ast
from repro.errors import DSLSemanticError


def ramp(height=6, width=8):
    return np.arange(height * width, dtype=np.float64).reshape(height, width)


class TestConstruction:
    def test_operator_overloading_builds_binops(self):
        expr = ast.StageRef("K0") + 1.0
        assert isinstance(expr, ast.BinOp)
        assert expr.op == "+"

    def test_right_operators(self):
        expr = 2.0 * ast.StageRef("K0")
        assert isinstance(expr, ast.BinOp)
        assert isinstance(expr.left, ast.Const)

    def test_unsupported_binop_rejected(self):
        with pytest.raises(DSLSemanticError):
            ast.BinOp("%", ast.Const(1.0), ast.Const(2.0))

    def test_unsupported_unary_rejected(self):
        with pytest.raises(DSLSemanticError):
            ast.UnaryOp("!", ast.Const(1.0))

    def test_call_arity_checked(self):
        with pytest.raises(DSLSemanticError):
            ast.Call("clamp", (ast.Const(1.0),))
        with pytest.raises(DSLSemanticError):
            ast.Call("select", (ast.Const(1.0), ast.Const(2.0)))
        with pytest.raises(DSLSemanticError):
            ast.Call("min", (ast.Const(1.0),))

    def test_unknown_intrinsic_rejected(self):
        with pytest.raises(DSLSemanticError):
            ast.Call("foo", (ast.Const(1.0),))

    def test_str_round_trip_mentions_offsets(self):
        text = str(ast.StageRef("K0", -1, 2))
        assert "K0" in text and "x-1" in text and "y+2" in text


class TestAnalyses:
    def test_references_by_stage(self):
        expr = ast.StageRef("A", 0, 0) + ast.StageRef("B", 1, 1) * ast.StageRef("A", -1, 0)
        refs = ast.references_by_stage(expr)
        assert set(refs) == {"A", "B"}
        assert len(refs["A"]) == 2

    def test_stencil_windows_union_offsets(self):
        expr = ast.StageRef("A", -1, -2) + ast.StageRef("A", 2, 1)
        window = ast.stencil_windows(expr)["A"]
        assert window.width == 4
        assert window.height == 4

    def test_operation_count(self):
        expr = ast.StageRef("A") + ast.StageRef("A", 1, 0) * 2.0
        assert ast.estimate_operation_count(expr) == 2

    def test_walk_visits_all_nodes(self):
        expr = ast.Call("max", (ast.StageRef("A"), ast.Const(1.0)))
        kinds = [type(node).__name__ for node in ast.walk(expr)]
        assert kinds.count("StageRef") == 1
        assert kinds.count("Const") == 1


class TestEvaluation:
    def test_reference_shift_with_clamping(self):
        image = ramp()
        shifted = ast.evaluate(ast.StageRef("K0", 1, 0), {"K0": image})
        assert shifted[0, 0] == image[0, 1]
        assert shifted[0, -1] == image[0, -1]  # clamped border

    def test_arithmetic_matches_numpy(self):
        image = ramp()
        expr = ast.StageRef("K0") * 2.0 - 3.0
        np.testing.assert_allclose(ast.evaluate(expr, {"K0": image}), image * 2.0 - 3.0)

    def test_division_by_zero_guarded(self):
        image = ramp()
        expr = ast.StageRef("K0") / 0.0
        result = ast.evaluate(expr, {"K0": image})
        np.testing.assert_allclose(result, image)

    def test_comparisons_are_binary_valued(self):
        image = ramp()
        result = ast.evaluate(ast.StageRef("K0") > 10.0, {"K0": image})
        assert set(np.unique(result)) <= {0.0, 1.0}

    def test_min_max_abs(self):
        image = ramp() - 20.0
        expr = ast.Call("max", (ast.Call("abs", (ast.StageRef("K0"),)), ast.Const(5.0)))
        result = ast.evaluate(expr, {"K0": image})
        np.testing.assert_allclose(result, np.maximum(np.abs(image), 5.0))

    def test_clamp_and_select(self):
        image = ramp()
        clamped = ast.evaluate(
            ast.Call("clamp", (ast.StageRef("K0"), ast.Const(5.0), ast.Const(10.0))),
            {"K0": image},
        )
        assert clamped.min() == 5.0 and clamped.max() == 10.0
        selected = ast.evaluate(
            ast.Call("select", (ast.StageRef("K0") > 10.0, ast.Const(1.0), ast.Const(0.0))),
            {"K0": image},
        )
        np.testing.assert_allclose(selected, (image > 10.0).astype(float))

    def test_sqrt_clamps_negative(self):
        image = ramp() - 100.0
        result = ast.evaluate(ast.Call("sqrt", (ast.StageRef("K0"),)), {"K0": image})
        assert np.all(result >= 0.0)

    def test_missing_image_raises(self):
        with pytest.raises(DSLSemanticError):
            ast.evaluate(ast.StageRef("missing"), {"K0": ramp()})

    def test_floor_division_is_not_an_operator(self):
        # The emitted Verilog has only a true divide, so the DSL offers no
        # floor division for the golden replay to disagree with.
        with pytest.raises(TypeError):
            ast.StageRef("K0") // 2
        with pytest.raises(DSLSemanticError):
            ast.BinOp("//", ast.StageRef("K0"), ast.Const(2.0))
