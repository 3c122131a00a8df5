"""Unit tests for Verilog expression translation, generation and linting."""

import re

import pytest

from repro.api import CompileTarget
from repro.core.compiler import compile_pipeline
from repro.dsl import ast
from repro.dsl.builder import PipelineBuilder, window_average, window_sum
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
from repro.rtl.sim import _carries

from tests.conftest import (
    TEST_HEIGHT,
    TEST_WIDTH,
    build_chain,
    build_paper_example,
    build_virtual_reader,
)
from tests.oracles import lint_verilog_regex

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

    def test_sanitize_escapes_non_ascii_characters(self):
        assert sanitize("K\u00f6") == "K_u00f6"
        assert sanitize("K\u00e4") == "K_u00e4"
        assert sanitize("\U0001f600") == "_U0001f600"
        assert sanitize("\u0663x") == "_u0663x"  # a non-ASCII digit
        for name in ("K\u00f6", "\u00e9t\u00e9", "9\u00f6", "a-b", "\u00a0", ""):
            assert re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", sanitize(name)), name

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

    def test_unbalanced_begin_end_message(self):
        source = """
module top (input wire clk, input wire d, output reg q);
    always @(posedge clk) begin
        if (d) begin
            q <= 1'b1;
        end
endmodule
"""
        report = lint_verilog(source)
        assert report.errors == ["Unbalanced begin/end: 2 begin(s), 1 end(s)"]

    def test_every_module_instantiated_means_no_top(self):
        source = """
module a (input wire clk);
    b u_b (.clk(clk));
endmodule
module b (input wire clk);
    a u_a (.clk(clk));
endmodule
"""
        report = lint_verilog(source)
        assert report.instances == [("b", "u_b"), ("a", "u_a")]
        assert report.errors == ["No top-level module (every module is instantiated)"]
        assert report.top_modules == []

    def test_parameterised_instance_named_on_the_next_line(self):
        """The instance is found across the line break, and its connections
        are read from the instance name on: the override ``.W(8)`` is not a
        port connection."""
        source = """
module leaf #(parameter W = 4) (input wire [W-1:0] a);
endmodule
module top (input wire [7:0] a);
    leaf #(.W(8))
        u_leaf (.a(a));
endmodule
"""
        report = lint_verilog(source)
        assert report.instances == [("leaf", "u_leaf")]
        assert report.top_modules == ["top"]
        assert report.errors == []
        assert lint_verilog_regex(source).errors == []

    def test_parameterised_instance_checks_only_its_port_connections(self):
        source = """
module leaf #(parameter W = 4) (input wire [W-1:0] a);
endmodule
module top (input wire [7:0] a);
    leaf #(.W(8)) u_leaf (.b(a));
endmodule
"""
        errors = ["Instance u_leaf connects unknown port .b of module leaf"]
        assert lint_verilog(source).errors == errors
        assert lint_verilog_regex(source).errors == errors

    def test_ports_declared_in_the_body(self):
        """Non-ANSI ports: the header lists names, the body declares them."""
        source = """
module leaf (clk, a, q);
    input wire clk;
    input wire [7:0] a;
    output reg [3:0] q;
endmodule
module top (input wire clk);
    wire [7:0] x;
    wire [7:0] y;
    leaf u_leaf (.clk(clk), .a(x), .q(y), .bogus(clk));
endmodule
"""
        report = lint_verilog(source)
        assert report.errors == [
            "Instance u_leaf connects unknown port .bogus of module leaf",
            "Instance u_leaf connects y (8 bits) to port .q of module leaf (4 bits)",
        ]

    def test_port_width_wins_over_a_wire_of_the_same_name(self):
        source = """
module leaf (input wire [7:0] a);
    wire [3:0] a;
endmodule
module top (input wire clk);
    wire [7:0] x;
    wire [3:0] y;
    leaf u_x (.a(x));
    leaf u_y (.a(y));
endmodule
"""
        report = lint_verilog(source)
        assert report.errors == [
            "Instance u_y connects y (4 bits) to port .a of module leaf (8 bits)"
        ]

    def test_identifiers_containing_keywords(self):
        """``begin_q``, ``xend``, ``my_module`` and ``endmodule_n`` are not
        keywords; ``$`` is not a word character, so ``$end`` holds an ``end``."""
        source = """
module my_module (input wire begin_q, output wire xend);
    wire endmodule_n;
    assign xend = begin_q;
endmodule
module top (input wire begin_q, output wire xend);
    my_module u_m (.begin_q(begin_q), .xend(xend));
endmodule
"""
        report = lint_verilog(source)
        assert report.ok, report.errors
        assert report.modules == ["my_module", "top"]
        assert report.instances == [("my_module", "u_m")]
        dollar = source.replace("assign xend = begin_q;", "$end;")
        assert lint_verilog(dollar).errors == ["Unbalanced begin/end: 0 begin(s), 1 end(s)"]

    def test_module_named_like_an_instance(self):
        """``module u_core (`` has the shape of an instantiation of a module
        called ``module``; it is a header, not an instance."""
        source = "module u_core (input wire clk);\nendmodule\n"
        report = lint_verilog(source)
        assert report.ok, report.errors
        assert report.modules == ["u_core"]
        assert report.instances == []

    def test_stages_named_like_keywords_lint_clean(self):
        builder = PipelineBuilder("keywords")
        source = builder.input("input")
        first = builder.stage("begin", window_sum(source, 3, 3))
        second = builder.stage("end", first(0, -1) + source(1, 0))
        builder.stage("module", window_sum(second, 3, 3) + first(0, 0))
        builder.dag.stage("module").is_output = True
        accelerator = compile_pipeline(
            CompileTarget(builder.dag.validated(), image_width=W, image_height=H),
        )
        report = lint_verilog(accelerator.generate_verilog())
        assert report.ok, report.errors
        assert {"stage_begin", "stage_end", "stage_module", "linebuffer_input"} <= set(
            report.modules
        )
        assert ("stage_module", "u_stage_module") in report.instances
        assert report.top_modules == ["imagen_sram", "accelerator_keywords"]

    def test_stage_named_endmodule_keeps_every_instance(self):
        """A stage named ``endmodule`` does not end a module body early."""

        def lint(name):
            builder = PipelineBuilder("chain")
            source = builder.input("K0")
            middle = builder.stage(name, window_average(source, 3, 3))
            builder.stage("out", window_average(middle, 3, 3))
            builder.dag.stage("out").is_output = True
            accelerator = compile_pipeline(
                CompileTarget(builder.dag.validated(), image_width=32, image_height=24),
            )
            return lint_verilog(accelerator.generate_verilog())

        named, plain = lint("endmodule"), lint("mid")
        assert named.ok and plain.ok, (named.errors, plain.errors)
        assert len(plain.instances) == 6
        assert len(named.instances) == len(plain.instances)
        assert ("stage_endmodule", "u_stage_endmodule") in named.instances
        assert named.top_modules == plain.top_modules == ["imagen_sram", "accelerator_chain"]

    @pytest.mark.parametrize(
        "identifier", ["endmodule_q", "q_endmodule", "my_endmodule_q", "endmodules"]
    )
    def test_identifier_containing_endmodule_does_not_end_the_body(self, identifier):
        """The linter and the regex oracle both end a body at a whole-word
        ``endmodule`` only."""
        source = f"""module leaf (input wire clk, input wire [7:0] a, output wire [7:0] q);
    wire [7:0] {identifier};
    assign {identifier} = a;
    assign q = {identifier};
endmodule
module top (input wire clk, input wire [7:0] a, output wire [7:0] q);
    wire [7:0] {identifier};
    leaf u_leaf (.clk(clk), .a(a), .q({identifier}));
    assign q = {identifier};
endmodule
"""
        for report in (lint_verilog(source), lint_verilog_regex(source)):
            assert report.ok, report.errors
            assert report.modules == ["leaf", "top"]
            assert report.instances == [("leaf", "u_leaf")]
            assert report.top_modules == ["top"]


class TestSimRouting:
    """The RTL simulator's routing walk (``_carries``) on ``virtual_of`` links,
    which only a wire-decoded DAG carries."""

    def test_virtual_reader_carries_its_physical_stage(self):
        dag = build_virtual_reader()
        assert _carries(dag, "K1_v1", "K1")
        assert not _carries(dag, "K1_v1", "K0")  # K1 computes, it does not relay

    def test_virtual_of_cycle_ends_the_walk(self):
        dag = build_virtual_reader(virtual_of="K1_v1")
        assert not _carries(dag, "K1_v1", "K0")
