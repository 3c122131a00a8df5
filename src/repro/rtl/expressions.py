"""DSL expression -> Verilog expression translation.

Pixels travel through the datapath as signed fixed-point values with
``FRACTION_BITS`` fractional bits; constants are rounded to the same format,
multiplication re-normalises with an arithmetic shift, and division
pre-scales the numerator.  The translation is purely combinational — the
paper's point that stage code generation is a mechanical translation
(Sec. 4) — and every producer reference maps to a named window-register wire.
"""

from __future__ import annotations

from repro.dsl import ast
from repro.errors import RTLError

#: Fixed-point fractional bits used throughout the generated datapath.
FRACTION_BITS = 8

#: Total datapath width in bits.
DATA_WIDTH = 32


def window_wire(stage: str, dx: int, dy: int) -> str:
    """Name of the window-register wire holding producer ``stage`` at (dx, dy)."""

    def tag(value: int) -> str:
        return f"p{value}" if value >= 0 else f"m{-value}"

    return f"win_{sanitize(stage)}_{tag(dx)}_{tag(dy)}"


def sanitize(name: str) -> str:
    """Make a stage name usable as a Verilog identifier."""
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = f"s_{cleaned}"
    return cleaned


def constant_literal(value: float) -> str:
    fixed = int(round(value * (1 << FRACTION_BITS)))
    if fixed < 0:
        return f"-{DATA_WIDTH}'sd{abs(fixed)}"
    return f"{DATA_WIDTH}'sd{fixed}"


def translate(expr: ast.Expr) -> str:
    """Translate an expression AST into a Verilog combinational expression."""
    if isinstance(expr, ast.Const):
        return constant_literal(expr.value)
    if isinstance(expr, ast.StageRef):
        return window_wire(expr.stage, expr.dx, expr.dy)
    if isinstance(expr, ast.UnaryOp):
        inner = translate(expr.operand)
        if expr.op == "-":
            return f"(-{inner})"
        if expr.op == "abs":
            return f"(({inner} < 0) ? (-{inner}) : ({inner}))"
        raise RTLError(f"Unsupported unary operator {expr.op!r}")
    if isinstance(expr, ast.BinOp):
        left = translate(expr.left)
        right = translate(expr.right)
        return _binop(expr.op, left, right)
    if isinstance(expr, ast.Call):
        args = [translate(a) for a in expr.args]
        return _call(expr.fn, args)
    raise RTLError(f"Cannot translate expression node {expr!r}")


def _binop(op: str, left: str, right: str) -> str:
    one = constant_literal(1.0)
    if op == "+":
        return f"({left} + {right})"
    if op == "-":
        return f"({left} - {right})"
    if op == "*":
        return f"((({left}) * ({right})) >>> {FRACTION_BITS})"
    if op == "/":
        return f"((({left}) <<< {FRACTION_BITS}) / (({right} == 0) ? {one} : ({right})))"
    if op == "min":
        return f"(({left} < {right}) ? ({left}) : ({right}))"
    if op == "max":
        return f"(({left} > {right}) ? ({left}) : ({right}))"
    if op in ("<", ">", "<=", ">=", "==", "!="):
        return f"(({left} {op} {right}) ? {one} : {constant_literal(0.0)})"
    raise RTLError(f"Unsupported binary operator {op!r}")


def _call(fn: str, args: list[str]) -> str:
    if fn == "abs":
        return f"(({args[0]} < 0) ? (-{args[0]}) : ({args[0]}))"
    if fn == "sqrt":
        # Synthesizable integer square root units are out of scope; expose the
        # operand through a helper function the backend can map to an IP block.
        return f"isqrt({args[0]})"
    if fn == "min":
        expr = args[0]
        for arg in args[1:]:
            expr = f"(({expr} < {arg}) ? ({expr}) : ({arg}))"
        return expr
    if fn == "max":
        expr = args[0]
        for arg in args[1:]:
            expr = f"(({expr} > {arg}) ? ({expr}) : ({arg}))"
        return expr
    if fn == "clamp":
        value, low, high = args
        return (
            f"(({value} < {low}) ? ({low}) : (({value} > {high}) ? ({high}) : ({value})))"
        )
    if fn == "select":
        condition, if_true, if_false = args
        return f"(({condition} != 0) ? ({if_true}) : ({if_false}))"
    raise RTLError(f"Unsupported intrinsic {fn!r}")


def uses_isqrt(expr: ast.Expr) -> bool:
    """Whether the translated expression references the isqrt helper."""
    return any(isinstance(node, ast.Call) and node.fn == "sqrt" for node in ast.walk(expr))
