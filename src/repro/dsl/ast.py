"""Expression AST for stencil stages.

Each pipeline stage's arithmetic is a pure function of pixels read from its
producers at constant offsets.  The AST supports:

* constants,
* producer references at constant offsets (``K0(x-1, y+1)``),
* binary arithmetic (``+ - * /``), comparisons (0/1 valued), min/max,
* unary negation and absolute value,
* a small set of intrinsics (``abs``, ``min``, ``max``, ``sqrt``, ``clamp``,
  ``select``).

The same AST serves three purposes: deriving the stencil window of each edge
(:func:`stencil_windows`), pixel-accurate functional simulation over NumPy
arrays (:func:`evaluate`), and Verilog expression generation
(:mod:`repro.rtl.modules`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.errors import DSLSemanticError
from repro.ir.stencil import StencilWindow

_BINARY_OPS = {"+", "-", "*", "/", "min", "max", "<", ">", "<=", ">=", "==", "!="}
_UNARY_OPS = {"-", "abs"}
_CALLS = {"abs", "min", "max", "sqrt", "clamp", "select"}


class Expr:
    """Base class for expression nodes.  Supports operator overloading."""

    # -- arithmetic sugar -------------------------------------------------
    def __add__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("+", self, _as_expr(other))

    def __radd__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("+", _as_expr(other), self)

    def __sub__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("-", self, _as_expr(other))

    def __rsub__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("-", _as_expr(other), self)

    def __mul__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("*", self, _as_expr(other))

    def __rmul__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("*", _as_expr(other), self)

    def __truediv__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("/", self, _as_expr(other))

    def __rtruediv__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("/", _as_expr(other), self)

    def __neg__(self) -> "Expr":
        return UnaryOp("-", self)

    def __lt__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("<", self, _as_expr(other))

    def __gt__(self, other: "Expr | float | int") -> "Expr":
        return BinOp(">", self, _as_expr(other))

    def __le__(self, other: "Expr | float | int") -> "Expr":
        return BinOp("<=", self, _as_expr(other))

    def __ge__(self, other: "Expr | float | int") -> "Expr":
        return BinOp(">=", self, _as_expr(other))

    def children(self) -> Sequence["Expr"]:
        return ()


@dataclass(frozen=True)
class Const(Expr):
    """A numeric literal."""

    value: float

    def children(self) -> Sequence[Expr]:
        return ()

    def __str__(self) -> str:
        if float(self.value).is_integer():
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True)
class StageRef(Expr):
    """A read of producer ``stage`` at constant offset ``(dx, dy)``.

    The optional frame offset ``dt`` (``0`` = current frame, ``-1`` = the
    previous frame) makes the reference temporal.  ``dt`` must be ``<= 0``
    for a causal pipeline — enforced at DAG validation, not here.
    """

    stage: str
    dx: int = 0
    dy: int = 0
    dt: int = 0

    def children(self) -> Sequence[Expr]:
        return ()

    def prev(self, frames: int = 1) -> "StageRef":
        """The same read shifted ``frames`` frames into the past."""
        return StageRef(self.stage, self.dx, self.dy, self.dt - frames)

    def __str__(self) -> str:
        def fmt(base: str, off: int) -> str:
            if off == 0:
                return base
            return f"{base}{'+' if off > 0 else '-'}{abs(off)}"

        # Spatial references keep the historical 2-axis form so the canonical
        # (str-based) serialization of 2-D pipelines stays byte-stable.
        if self.dt == 0:
            return f"{self.stage}({fmt('x', self.dx)},{fmt('y', self.dy)})"
        return f"{self.stage}({fmt('x', self.dx)},{fmt('y', self.dy)},{fmt('t', self.dt)})"


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _BINARY_OPS:
            raise DSLSemanticError(f"Unsupported binary operator {self.op!r}")

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def __str__(self) -> str:
        if self.op in ("min", "max"):
            return f"{self.op}({self.left}, {self.right})"
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """A unary operation (negation or absolute value)."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in _UNARY_OPS:
            raise DSLSemanticError(f"Unsupported unary operator {self.op!r}")

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def __str__(self) -> str:
        if self.op == "abs":
            return f"abs({self.operand})"
        return f"(-{self.operand})"


@dataclass(frozen=True)
class Call(Expr):
    """An intrinsic call: abs, min, max, sqrt, clamp(v, lo, hi), select(c, a, b)."""

    fn: str
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.fn not in _CALLS:
            raise DSLSemanticError(f"Unsupported intrinsic {self.fn!r}")
        arity = {"abs": 1, "sqrt": 1, "clamp": 3, "select": 3}
        if self.fn in arity and len(self.args) != arity[self.fn]:
            raise DSLSemanticError(
                f"Intrinsic {self.fn!r} expects {arity[self.fn]} arguments, got {len(self.args)}"
            )
        if self.fn in ("min", "max") and len(self.args) < 2:
            raise DSLSemanticError(f"Intrinsic {self.fn!r} expects at least 2 arguments")

    def children(self) -> Sequence[Expr]:
        return self.args

    def __str__(self) -> str:
        return f"{self.fn}({', '.join(str(a) for a in self.args)})"


def _as_expr(value: Expr | float | int) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise DSLSemanticError(f"Cannot convert {value!r} to a DSL expression")


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------
def walk(expr: Expr):
    """Pre-order traversal of an expression tree."""
    yield expr
    for child in expr.children():
        yield from walk(child)


def references_by_stage(expr: Expr) -> dict[str, list[StageRef]]:
    """Group every producer reference in ``expr`` by producer name."""
    refs: dict[str, list[StageRef]] = {}
    for node in walk(expr):
        if isinstance(node, StageRef):
            refs.setdefault(node.stage, []).append(node)
    return refs


def stencil_windows(expr: Expr) -> dict[str, StencilWindow]:
    """The stencil window read from each producer referenced by ``expr``.

    Temporal references (``dt != 0``) widen the window's frame extent; purely
    spatial expressions produce the same windows they always did.
    """
    windows: dict[str, StencilWindow] = {}
    for stage, refs in references_by_stage(expr).items():
        window = _point_window(refs[0])
        for ref in refs[1:]:
            window = window.union(_point_window(ref))
        windows[stage] = window
    return windows


def _point_window(ref: StageRef) -> StencilWindow:
    if ref.dt == 0:
        return StencilWindow(ref.dx, ref.dx, ref.dy, ref.dy)
    return StencilWindow(ref.dx, ref.dx, ref.dy, ref.dy, ref.dt, ref.dt)


# ---------------------------------------------------------------------------
# Functional evaluation over NumPy images
# ---------------------------------------------------------------------------
def _shifted(image: np.ndarray, dx: int, dy: int, dt: int = 0) -> np.ndarray:
    """Return image sampled at (x+dx, y+dy) — and frame (t+dt) — edge-clamped.

    Spatial offsets shift the trailing two axes only, so a
    (frames, height, width) batch evaluates all frames in one pass — the
    vectorized replay path of ``repro.sim.batch`` relies on this.  A temporal
    offset shifts the third-from-last axis (the frame/time axis) with the
    same clamping convention: before the first frame, the sequence is padded
    by repeating frame 0 (the temporal analogue of edge-clamped borders).
    A zero offset is a plain copy: no gather.
    """
    if dx == 0 and dy == 0 and dt == 0:
        return image.copy()
    height, width = image.shape[-2], image.shape[-1]
    ys = np.clip(np.arange(height) + dy, 0, height - 1)
    xs = np.clip(np.arange(width) + dx, 0, width - 1)
    shifted = image[..., ys[:, None], xs[None, :]]
    if dt == 0:
        return shifted
    if image.ndim < 3:
        raise DSLSemanticError(
            f"Temporal reference (dt={dt}) needs a (frames, height, width) "
            "sequence, got a single 2-D frame"
        )
    frames = image.shape[-3]
    ts = np.clip(np.arange(frames) + dt, 0, frames - 1)
    axis = image.ndim - 3
    return np.take(shifted, ts, axis=axis)


def evaluate(expr: Expr, images: Mapping[str, np.ndarray]) -> np.ndarray:
    """Evaluate ``expr`` over full images (pixel-accurate functional semantics).

    ``images`` maps producer stage names to float arrays of identical shape —
    2-D ``(height, width)`` single frames or N-D batches whose trailing two
    axes are ``(height, width)``.  Border handling is edge clamping, matching
    the padding assumption of the paper's formulation (Sec. 5, footnote 2).
    """

    def fetch(ref: StageRef) -> np.ndarray:
        if ref.stage not in images:
            raise DSLSemanticError(f"No image supplied for producer {ref.stage!r}")
        image = np.asarray(images[ref.stage], dtype=np.float64)
        return _shifted(image, ref.dx, ref.dy, ref.dt)

    return _evaluate(expr, fetch, next((img.shape for img in images.values()), None))


def _evaluate(
    expr: Expr, fetch: Callable[[StageRef], np.ndarray], shape: tuple[int, ...] | None
) -> np.ndarray:
    """The one recursive evaluator: the golden replay and the RTL sim share it.

    ``fetch(ref)`` serves every producer read — direct edge-clamped images in
    :func:`evaluate`, line- and frame-buffer taps in :mod:`repro.rtl.sim` —
    and constants fill ``shape`` (``()`` for a single pixel).  Operators
    apply in tree order, so two callers whose reads agree agree bit-exactly.
    """
    if isinstance(expr, Const):
        if shape is None:
            raise DSLSemanticError("Cannot evaluate a constant expression without images")
        return np.full(shape, expr.value, dtype=np.float64)
    if isinstance(expr, StageRef):
        return fetch(expr)
    if isinstance(expr, UnaryOp):
        value = _evaluate(expr.operand, fetch, shape)
        return np.abs(value) if expr.op == "abs" else -value
    if isinstance(expr, BinOp):
        left = _evaluate(expr.left, fetch, shape)
        right = _evaluate(expr.right, fetch, shape)
        return _apply_binop(expr.op, left, right)
    if isinstance(expr, Call):
        args = [_evaluate(arg, fetch, shape) for arg in expr.args]
        return _apply_call(expr.fn, args)
    raise DSLSemanticError(f"Cannot evaluate expression node {expr!r}")


def _apply_binop(op: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return np.divide(left, np.where(right == 0, 1.0, right))
    if op == "min":
        return np.minimum(left, right)
    if op == "max":
        return np.maximum(left, right)
    if op == "<":
        return (left < right).astype(np.float64)
    if op == ">":
        return (left > right).astype(np.float64)
    if op == "<=":
        return (left <= right).astype(np.float64)
    if op == ">=":
        return (left >= right).astype(np.float64)
    if op == "==":
        return (left == right).astype(np.float64)
    if op == "!=":
        return (left != right).astype(np.float64)
    raise DSLSemanticError(f"Unsupported binary operator {op!r}")


def _apply_call(fn: str, args: list[np.ndarray]) -> np.ndarray:
    if fn == "abs":
        return np.abs(args[0])
    if fn == "sqrt":
        return np.sqrt(np.maximum(args[0], 0.0))
    if fn == "min":
        result = args[0]
        for arg in args[1:]:
            result = np.minimum(result, arg)
        return result
    if fn == "max":
        result = args[0]
        for arg in args[1:]:
            result = np.maximum(result, arg)
        return result
    if fn == "clamp":
        return np.clip(args[0], args[1], args[2])
    if fn == "select":
        return np.where(args[0] != 0, args[1], args[2])
    raise DSLSemanticError(f"Unsupported intrinsic {fn!r}")


def estimate_operation_count(expr: Expr) -> int:
    """Number of arithmetic operators in an expression (proxy for PE cost)."""
    count = 0
    for node in walk(expr):
        if isinstance(node, (BinOp, UnaryOp)):
            count += 1
        elif isinstance(node, Call):
            count += max(1, len(node.args) - 1)
    return count
