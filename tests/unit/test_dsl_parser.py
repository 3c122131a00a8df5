"""Unit tests for the textual DSL parser."""

import pytest

from repro.dsl.parser import parse_pipeline
from repro.errors import DSLSemanticError, DSLSyntaxError

PAPER_PROGRAM = """
input K0;
// K1 reads a 3x3 window from K0
K1 = im(x,y) K0(x-1,y-1) + K0(x,y-1) + K0(x+1,y-1) +
             K0(x-1,y)   + K0(x,y)   + K0(x+1,y)   +
             K0(x-1,y+1) + K0(x,y+1) + K0(x+1,y+1) end
// K2 reads a 2x2 window from K0 and a 3x3 window from K1
output K2 = im(x,y) K0(x,y) + K0(x+1,y) + K0(x,y+1) + K0(x+1,y+1) +
                    K1(x-1,y-1) + K1(x+1,y+1) end
"""


class TestParsePaperExample:
    def test_stage_roles(self):
        dag = parse_pipeline(PAPER_PROGRAM, name="paper")
        assert dag.stage("K0").is_input
        assert dag.stage("K2").is_output
        assert not dag.stage("K1").is_output

    def test_stencil_windows(self):
        dag = parse_pipeline(PAPER_PROGRAM)
        assert dag.edge("K0", "K1").window.height == 3
        assert dag.edge("K0", "K1").window.width == 3
        assert dag.edge("K0", "K2").window.height == 2
        assert dag.edge("K1", "K2").window.height == 3

    def test_multi_consumer_detected(self):
        dag = parse_pipeline(PAPER_PROGRAM)
        assert dag.multi_consumer_stages() == ["K0"]

    def test_expressions_attached(self):
        dag = parse_pipeline(PAPER_PROGRAM)
        assert dag.stage("K1").expression is not None
        assert dag.stage("K0").expression is None


class TestParserFeatures:
    def test_implicit_output_is_last_stage(self):
        dag = parse_pipeline("input A; B = im(x,y) A(x,y) end C = im(x,y) B(x,y)+1 end")
        assert [s.name for s in dag.output_stages()] == ["C"]

    def test_intrinsics_parse(self):
        source = "input A; output B = im(x,y) max(abs(A(x-1,y)), A(x+1,y)) end"
        dag = parse_pipeline(source)
        assert dag.edge("A", "B").window.width == 3

    def test_numeric_offsets(self):
        dag = parse_pipeline("input A; output B = im(x,y) A(x+2,y-3) end")
        window = dag.edge("A", "B").window
        assert window.max_dx == 2 and window.min_dy == -3

    def test_division_and_constants(self):
        dag = parse_pipeline("input A; output B = im(x,y) (A(x,y) + A(x+1,y)) / 2 end")
        assert dag.edge("A", "B").window.width == 2

    def test_double_slash_ends_the_expression(self):
        # ``//`` starts a line comment; the DSL has no floor division.
        dag = parse_pipeline("input A;\noutput B = im(x,y) A(x,y) + A(x+1,y) // 2\nend")
        expression = dag.stage("B").expression
        assert expression.op == "+"
        assert "/" not in str(expression)

    def test_comparison_expression(self):
        dag = parse_pipeline("input A; output B = im(x,y) (A(x,y) > 10) * 255 end")
        assert "B" in dag


class TestParserErrors:
    def test_undefined_stage_reference(self):
        with pytest.raises(DSLSemanticError):
            parse_pipeline("input A; output B = im(x,y) C(x,y) end")

    def test_forward_reference_rejected(self):
        source = "input A; B = im(x,y) C(x,y) end output C = im(x,y) A(x,y) end"
        with pytest.raises(DSLSemanticError):
            parse_pipeline(source)

    def test_duplicate_definition(self):
        with pytest.raises(DSLSemanticError):
            parse_pipeline("input A; input A;")

    def test_stage_without_reads(self):
        with pytest.raises(DSLSemanticError):
            parse_pipeline("input A; output B = im(x,y) 42 end")

    def test_missing_end_keyword(self):
        with pytest.raises(DSLSyntaxError):
            parse_pipeline("input A; output B = im(x,y) A(x,y)")

    def test_wrong_loop_variable(self):
        with pytest.raises(DSLSyntaxError):
            parse_pipeline("input A; output B = im(x,y) A(u,v) end")

    def test_empty_program(self):
        with pytest.raises(DSLSemanticError):
            parse_pipeline("")

    def test_only_inputs(self):
        with pytest.raises(DSLSemanticError):
            parse_pipeline("input A;")

    def test_malformed_offset(self):
        with pytest.raises(DSLSyntaxError):
            parse_pipeline("input A; output B = im(x,y) A(x*, y) end")
