"""Recursive-descent parser for the textual DSL.

Grammar (EBNF)::

    program    := statement+
    statement  := "input" NAME ";"
                | ["output"] NAME "=" "im" "(" NAME "," NAME ["," NAME] ")"
                  expr "end" [";"]
    expr       := comparison
    comparison := additive (("<"|">"|"<="|">="|"=="|"!=") additive)?
    additive   := term (("+"|"-") term)*
    term       := factor (("*"|"/") factor)*
    factor     := NUMBER | "-" factor | "(" expr ")" | call | reference | prev
    call       := NAME "(" expr ("," expr)* ")"       (for intrinsic names)
    reference  := NAME "(" offset "," offset ["," offset] ")"
    prev       := "prev" "(" NAME ["," NUMBER] ")"
    offset     := (XVAR|YVAR|TVAR) (("+"|"-") NUMBER)? | ("-")? NUMBER

The parser produces a validated :class:`repro.ir.dag.PipelineDAG` whose edges
carry stencil windows derived from the reference offsets.

Temporal pipelines declare a third loop variable in the ``im`` header —
``im(x, y, t)`` — and may then give references a third (frame) offset,
``K0(x-1, y, t-1)``.  ``prev(K0)`` / ``prev(K0, n)`` is shorthand for the
producer read at the same pixel ``n`` frames ago (``K0(x, y, t-n)``); it is
accepted with or without the temporal header.
"""

from __future__ import annotations

from repro.dsl import ast
from repro.dsl.lexer import Token, tokenize
from repro.errors import DSLSemanticError, DSLSyntaxError
from repro.ir.dag import PipelineDAG, Stage
from repro.ir.stencil import StencilWindow

_INTRINSICS = {"abs", "min", "max", "sqrt", "clamp", "select"}


class _Parser:
    def __init__(self, tokens: list[Token], name: str) -> None:
        self._tokens = tokens
        self._pos = 0
        self._name = name
        self._x_var = "x"
        self._y_var = "y"
        self._t_var: str | None = None
        self._defined: list[str] = []
        self._inputs: set[str] = set()
        self._outputs: set[str] = set()
        self._expressions: dict[str, ast.Expr] = {}

    # ----------------------------------------------------------- token utils
    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, kind: str, value: str | None = None) -> Token:
        token = self._peek()
        if token.kind != kind or (value is not None and token.value != value):
            expectation = value if value is not None else kind
            raise DSLSyntaxError(
                f"Expected {expectation!r} but found {token.value or token.kind!r}",
                token.line,
                token.column,
            )
        return self._advance()

    def _match(self, kind: str, value: str | None = None) -> bool:
        token = self._peek()
        if token.kind == kind and (value is None or token.value == value):
            self._advance()
            return True
        return False

    # ------------------------------------------------------------- program
    def parse(self) -> PipelineDAG:
        while self._peek().kind != "eof":
            self._statement()
        return self._build_dag()

    def _statement(self) -> None:
        token = self._peek()
        if token.kind == "keyword" and token.value == "input":
            self._advance()
            name = self._expect("name").value
            self._expect("symbol", ";")
            self._declare(name, is_input=True)
            return

        is_output = False
        if token.kind == "keyword" and token.value == "output":
            self._advance()
            is_output = True
        name_token = self._expect("name")
        name = name_token.value
        self._expect("symbol", "=")
        self._expect("keyword", "im")
        self._expect("symbol", "(")
        self._x_var = self._expect("name").value
        self._expect("symbol", ",")
        self._y_var = self._expect("name").value
        self._t_var = None
        if self._match("symbol", ","):
            self._t_var = self._expect("name").value
        self._expect("symbol", ")")
        expression = self._expr()
        self._expect("keyword", "end")
        self._match("symbol", ";")

        self._declare(name, is_input=False, is_output=is_output)
        self._expressions[name] = expression

    def _declare(self, name: str, is_input: bool, is_output: bool = False) -> None:
        if name in self._defined:
            raise DSLSemanticError(f"Stage {name!r} defined more than once")
        self._defined.append(name)
        if is_input:
            self._inputs.add(name)
        if is_output:
            self._outputs.add(name)

    # ------------------------------------------------------------ expressions
    def _expr(self) -> ast.Expr:
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        token = self._peek()
        if token.kind == "symbol" and token.value in ("<", ">", "<=", ">=", "==", "!="):
            op = self._advance().value
            right = self._additive()
            return ast.BinOp(op, left, right)
        return left

    def _additive(self) -> ast.Expr:
        expr = self._term()
        while True:
            token = self._peek()
            if token.kind == "symbol" and token.value in ("+", "-"):
                op = self._advance().value
                expr = ast.BinOp(op, expr, self._term())
            else:
                return expr

    def _term(self) -> ast.Expr:
        expr = self._factor()
        while True:
            token = self._peek()
            if token.kind == "symbol" and token.value in ("*", "/"):
                op = self._advance().value
                expr = ast.BinOp(op, expr, self._factor())
            else:
                return expr

    def _factor(self) -> ast.Expr:
        token = self._peek()
        if token.kind == "number":
            self._advance()
            return ast.Const(float(token.value))
        if token.kind == "symbol" and token.value == "-":
            self._advance()
            return ast.UnaryOp("-", self._factor())
        if token.kind == "symbol" and token.value == "(":
            self._advance()
            expr = self._expr()
            self._expect("symbol", ")")
            return expr
        if token.kind == "name":
            return self._call_or_reference()
        raise DSLSyntaxError(
            f"Unexpected token {token.value or token.kind!r} in expression",
            token.line,
            token.column,
        )

    def _call_or_reference(self) -> ast.Expr:
        name_token = self._expect("name")
        name = name_token.value
        self._expect("symbol", "(")
        if name in _INTRINSICS:
            args = [self._expr()]
            while self._match("symbol", ","):
                args.append(self._expr())
            self._expect("symbol", ")")
            return ast.Call(name, tuple(args))
        if name == "prev" and name not in self._defined:
            return self._prev_reference(name_token)
        dx = self._offset(self._x_var, name_token)
        self._expect("symbol", ",")
        dy = self._offset(self._y_var, name_token)
        dt = 0
        if self._match("symbol", ","):
            if self._t_var is None:
                raise DSLSyntaxError(
                    "Frame offsets need a temporal im(x, y, t) header",
                    name_token.line,
                    name_token.column,
                )
            dt = self._offset(self._t_var, name_token)
        self._expect("symbol", ")")
        return ast.StageRef(name, dx, dy, dt)

    def _prev_reference(self, context: Token) -> ast.Expr:
        """``prev(K0)`` / ``prev(K0, n)``: producer at the same pixel n frames ago."""
        producer = self._expect("name").value
        frames = 1
        if self._match("symbol", ","):
            number = self._expect("number")
            frames = int(float(number.value))
            if frames < 1:
                raise DSLSyntaxError(
                    f"prev() frame count must be >= 1, got {frames}",
                    number.line,
                    number.column,
                )
        self._expect("symbol", ")")
        return ast.StageRef(producer, 0, 0, -frames)

    def _offset(self, axis_var: str, context: Token) -> int:
        token = self._peek()
        if token.kind == "name":
            if token.value != axis_var:
                raise DSLSyntaxError(
                    f"Expected loop variable {axis_var!r} in stage reference",
                    token.line,
                    token.column,
                )
            self._advance()
            next_token = self._peek()
            if next_token.kind == "symbol" and next_token.value in ("+", "-"):
                sign = 1 if self._advance().value == "+" else -1
                number = self._expect("number")
                return sign * int(float(number.value))
            return 0
        if token.kind == "symbol" and token.value == "-":
            self._advance()
            number = self._expect("number")
            return -int(float(number.value))
        if token.kind == "number":
            self._advance()
            return int(float(token.value))
        raise DSLSyntaxError(
            f"Malformed offset in reference near {context.value!r}",
            token.line,
            token.column,
        )

    # ---------------------------------------------------------------- output
    def _build_dag(self) -> PipelineDAG:
        dag = PipelineDAG(self._name)
        if not self._defined:
            raise DSLSemanticError("Empty DSL program")
        outputs = set(self._outputs)
        if not outputs:
            # The last defined non-input stage is implicitly the output.
            non_inputs = [n for n in self._defined if n not in self._inputs]
            if not non_inputs:
                raise DSLSemanticError("Program defines only input stages")
            outputs = {non_inputs[-1]}

        for name in self._defined:
            dag.add_stage(
                Stage(
                    name=name,
                    is_input=name in self._inputs,
                    is_output=name in outputs,
                    expression=self._expressions.get(name),
                )
            )

        for name, expression in self._expressions.items():
            windows = ast.stencil_windows(expression)
            if not windows:
                raise DSLSemanticError(f"Stage {name!r} does not read any producer")
            for producer, window in windows.items():
                if producer not in dag:
                    raise DSLSemanticError(
                        f"Stage {name!r} references undefined stage {producer!r}"
                    )
                if self._defined.index(producer) >= self._defined.index(name):
                    raise DSLSemanticError(
                        f"Stage {name!r} references {producer!r} before it is defined"
                    )
                dag.add_edge(producer, name, _anchor(window))
        return dag.validated()


def _anchor(window: StencilWindow) -> StencilWindow:
    """Keep the window's true offsets; scheduling uses only its extent."""
    return window


def parse_pipeline(source: str, name: str = "pipeline") -> PipelineDAG:
    """Parse DSL source text into a validated :class:`PipelineDAG`."""
    tokens = tokenize(source)
    return _Parser(tokens, name).parse()
