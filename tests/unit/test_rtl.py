"""Unit tests for Verilog expression translation, generation and linting."""

import pytest

from repro.api import CompileTarget
from repro.core.compiler import compile_pipeline
from repro.dsl import ast
from repro.errors import RTLError
from repro.rtl.expressions import (
    DATA_WIDTH,
    constant_literal,
    sanitize,
    translate,
    window_wire,
)
from repro.rtl.generator import generate_design
from repro.rtl.lint import lint_verilog

from tests.conftest import TEST_HEIGHT, TEST_WIDTH, build_chain, build_paper_example

W, H = TEST_WIDTH, TEST_HEIGHT


class TestExpressionTranslation:
    def test_constants_are_fixed_point(self):
        assert constant_literal(1.0) == f"{DATA_WIDTH}'sd256"
        assert constant_literal(-0.5) == f"-{DATA_WIDTH}'sd128"

    def test_stage_reference_names(self):
        assert window_wire("K0", -1, 2) == "win_K0_m1_p2"
        assert "win_K0_p0_p0" in translate(ast.StageRef("K0", 0, 0))

    def test_sanitize(self):
        assert sanitize("a-b c") == "a_b_c"
        assert sanitize("1stage").startswith("s_")

    def test_multiplication_renormalises(self):
        text = translate(ast.StageRef("A") * 2.0)
        assert ">>> 8" in text

    def test_division_prescales(self):
        text = translate(ast.StageRef("A") / ast.StageRef("B"))
        assert "<<< 8" in text

    def test_comparison_produces_fixed_point_bool(self):
        text = translate(ast.StageRef("A") > 3.0)
        assert "?" in text and "'sd256" in text

    def test_intrinsics(self):
        assert "?" in translate(ast.Call("max", (ast.StageRef("A"), ast.Const(1.0))))
        assert "isqrt" in translate(ast.Call("sqrt", (ast.StageRef("A"),)))
        clamp = translate(ast.Call("clamp", (ast.StageRef("A"), ast.Const(0.0), ast.Const(1.0))))
        assert clamp.count("?") == 2

    def test_abs_and_negation(self):
        assert "-" in translate(-ast.StageRef("A"))
        assert "< 0" in translate(ast.Call("abs", (ast.StageRef("A"),)))


class TestGeneratedDesign:
    @pytest.fixture(scope="class")
    def design(self):
        accelerator = compile_pipeline(
            CompileTarget(build_paper_example(), image_width=W, image_height=H),
        )
        return generate_design(accelerator.schedule)

    def test_module_inventory(self, design):
        assert design.top_module == "accelerator_paper_example"
        assert "imagen_sram" in design.module_names
        assert any(name.startswith("linebuffer_") for name in design.module_names)
        assert any(name.startswith("stage_") for name in design.module_names)
        assert any(name.startswith("window_") for name in design.module_names)

    def test_every_stage_has_a_module(self, design):
        for stage in ("K1", "K2"):
            assert f"stage_{stage}" in design.module_names

    def test_schedule_constants_embedded(self, design):
        accelerator = compile_pipeline(
            CompileTarget(build_paper_example(), image_width=W, image_height=H),
        )
        for start in accelerator.schedule.start_cycles.values():
            assert f"32'd{start}" in design.source

    def test_line_count_is_substantial(self, design):
        assert design.line_count > 200

    def test_lint_passes(self, design):
        report = lint_verilog(design.source)
        assert report.ok, report.errors

    def test_chain_design_lints(self):
        accelerator = compile_pipeline(
            CompileTarget(build_chain(4), image_width=W, image_height=H),
        )
        report = lint_verilog(accelerator.generate_verilog())
        assert report.ok, report.errors


class TestLinter:
    def test_detects_undefined_module(self):
        source = """
module top (input wire clk);
    missing_module u_inst (.clk(clk));
endmodule
"""
        report = lint_verilog(source)
        assert not report.ok
        assert any("undefined module" in e for e in report.errors)

    def test_detects_unbalanced_endmodule(self):
        source = "module a (input wire clk);\nmodule b (input wire clk);\nendmodule\n"
        report = lint_verilog(source)
        assert not report.ok

    def test_detects_duplicate_modules(self):
        source = "module a ();\nendmodule\nmodule a ();\nendmodule\n"
        report = lint_verilog(source)
        assert any("Duplicate" in e for e in report.errors)

    def test_detects_unknown_port(self):
        source = """
module leaf (input wire clk);
endmodule
module top (input wire clk);
    leaf u_leaf (.clk(clk), .nonexistent(clk));
endmodule
"""
        report = lint_verilog(source)
        assert any("unknown port" in e for e in report.errors)

    def test_reports_top_modules(self):
        source = """
module leaf (input wire clk);
endmodule
module top (input wire clk);
    leaf u_leaf (.clk(clk));
endmodule
"""
        report = lint_verilog(source)
        assert report.ok
        assert report.top_modules == ["top"]

    def test_multi_identifier_port_declarations(self):
        """`input wire a, b` declares both ports — neither connection errors."""
        source = """
module leaf (input wire clk, rst, input wire [7:0] a, b, output reg [7:0] q);
endmodule
module top (input wire clk, output wire [7:0] q);
    wire rst;
    wire [7:0] x, y;
    leaf u_leaf (.clk(clk), .rst(rst), .a(x), .b(y), .q(q));
endmodule
"""
        report = lint_verilog(source)
        assert report.ok, report.errors

    def test_multi_identifier_list_stops_at_next_direction(self):
        """`input wire a, output wire b` must not fold b into the input list."""
        source = """
module leaf (input wire a, output wire b);
endmodule
module top (input wire a, output wire b);
    leaf u_leaf (.a(a), .b(b));
endmodule
"""
        report = lint_verilog(source)
        assert report.ok, report.errors

    def test_detects_width_mismatch_on_connection(self):
        source = """
module leaf (input wire clk, input wire [7:0] a);
endmodule
module top (input wire clk);
    wire [3:0] narrow;
    leaf u_leaf (.clk(clk), .a(narrow));
endmodule
"""
        report = lint_verilog(source)
        assert any(
            "narrow (4 bits)" in e and ".a" in e and "(8 bits)" in e
            for e in report.errors
        ), report.errors

    def test_width_check_skips_expressions_and_symbolic_ranges(self):
        """Only bare identifiers with constant ranges on both ends compare."""
        source = """
module leaf (input wire [7:0] a, input wire [WIDTH-1:0] b);
endmodule
module top (input wire clk);
    wire [7:0] x;
    wire [3:0] y;
    leaf u_leaf (.a(x[7:0] % 3), .b(y));
endmodule
"""
        report = lint_verilog(source)
        assert report.ok, report.errors
