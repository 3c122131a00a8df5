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

import operator
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
        dxs, dys, dts = zip(*((ref.dx, ref.dy, ref.dt) for ref in refs))
        windows[stage] = StencilWindow(min(dxs), max(dxs), min(dys), max(dys), min(dts), max(dts))
    return windows


# ---------------------------------------------------------------------------
# Functional evaluation over NumPy images
# ---------------------------------------------------------------------------
class _EdgePadded:
    """A producer image edge-padded once, so that every read is a basic slice.

    ``window`` bounds the offsets that :meth:`tap` will read.  Spatial
    offsets pad the trailing two axes; a temporal window pads the frame axis
    (third from last), so frame ``t + dt`` before the first frame repeats
    frame 0, the temporal analogue of edge-clamped borders.  An offset past
    the border reads the same edge pixels as one at the border, so no axis
    is padded by more than its length minus one.  A point window pads
    nothing and serves views of ``image`` itself.
    """

    __slots__ = ("shape", "origin", "padded", "image")

    def __init__(self, image: np.ndarray, window: StencilWindow) -> None:
        reaches = [
            _reach(window.min_dy, window.max_dy, image.shape[-2]),
            _reach(window.min_dx, window.max_dx, image.shape[-1]),
        ]
        if window.is_temporal:
            if image.ndim < 3:
                dt = window.min_dt or window.max_dt
                raise DSLSemanticError(
                    f"Temporal reference (dt={dt}) needs a (frames, height, width) "
                    "sequence, got a single 2-D frame"
                )
            reaches.insert(0, _reach(window.min_dt, window.max_dt, image.shape[-3]))
        self.shape = image.shape
        self.origin = tuple(before for before, _ in reaches)
        self.padded = _edge_pad(image, reaches) if any(map(any, reaches)) else image
        #: The unpadded image, a view of ``padded``.
        self.image = self.tap(0, 0)

    def tap(self, dx: int, dy: int, dt: int = 0) -> np.ndarray:
        """The image sampled at ``(x + dx, y + dy)`` and frame ``t + dt``: a view."""
        *_, height, width = self.shape
        y = self.origin[-2] + _clip_offset(dy, height)
        x = self.origin[-1] + _clip_offset(dx, width)
        if len(self.origin) == 2:
            return self.padded[..., y : y + height, x : x + width]
        frames = self.shape[-3]
        t = self.origin[0] + _clip_offset(dt, frames)
        return self.padded[..., t : t + frames, y : y + height, x : x + width]


def _clip_offset(offset: int, length: int) -> int:
    return min(max(offset, 1 - length), length - 1)


def _reach(low: int, high: int, length: int) -> tuple[int, int]:
    """Padding before and after an axis of ``length`` for offsets ``low..high``."""
    return max(0, -_clip_offset(low, length)), max(0, _clip_offset(high, length))


def _edge_pad(image: np.ndarray, reaches: list[tuple[int, int]]) -> np.ndarray:
    """``np.pad(image, reaches, mode="edge")`` on the trailing axes, minus its overhead."""
    lead = image.ndim - len(reaches)
    lengths = image.shape[lead:]
    padded = np.empty(
        image.shape[:lead] + tuple(n + b + a for n, (b, a) in zip(lengths, reaches))
    )
    index = [slice(b, b + n) for n, (b, _) in zip(lengths, reaches)]
    padded[(..., *index)] = image
    # Innermost axis first, over the core of the outer axes; each later
    # axis then copies whole padded slabs.
    for axis in reversed(range(len(reaches))):
        (before, after), n = reaches[axis], lengths[axis]
        end = before + n
        for start, stop, edge in ((0, before, before), (end, end + after, end - 1)):
            if start != stop:
                index[axis] = slice(start, stop)
                target = (..., *index)
                index[axis] = slice(edge, edge + 1)
                padded[target] = padded[(..., *index)]
        index[axis] = slice(None)
    return padded


def evaluate(expr: Expr, images: Mapping[str, np.ndarray]) -> np.ndarray:
    """Evaluate ``expr`` over full images (pixel-accurate functional semantics).

    ``images`` maps producer stage names to float arrays of identical shape —
    2-D ``(height, width)`` single frames or N-D batches whose trailing two
    axes are ``(height, width)``.  Border handling is edge clamping, matching
    the padding assumption of the paper's formulation (Sec. 5, footnote 2):
    each producer is edge-padded once by its stencil window, and every
    reference reads a zero-copy slice of the padded copy.  The padded
    copies live only for this call.
    """
    padded: dict[str, _EdgePadded] = {}
    for stage, window in stencil_windows(expr).items():
        if stage not in images:
            raise DSLSemanticError(f"No image supplied for producer {stage!r}")
        padded[stage] = _EdgePadded(np.asarray(images[stage], dtype=np.float64), window)

    def fetch(ref: StageRef) -> np.ndarray:
        return padded[ref.stage].tap(ref.dx, ref.dy, ref.dt)

    return _evaluate(expr, fetch, next((img.shape for img in images.values()), None))


def _evaluate(
    expr: Expr, fetch: Callable[[StageRef], np.ndarray], shape: tuple[int, ...] | None
) -> np.ndarray:
    """The one recursive evaluator: the golden replay and the RTL sim share it.

    ``fetch(ref)`` serves every producer read — slices of edge-padded images
    in :func:`evaluate`, line- and frame-buffer taps in :mod:`repro.rtl.sim`.
    Constants are 0-d scalars that broadcast.  Operators apply in tree order
    with fixed ufuncs, so two callers whose reads agree agree bit-exactly;
    each writes into an operand the evaluator allocated itself, never into a
    read.  Returns a new array of ``shape`` (``()`` for a single pixel), even
    for a bare reference or a constant.
    """
    value, owned = _value(expr, fetch)
    if owned and value.shape == shape:
        return value
    if shape is None:
        raise DSLSemanticError("Cannot evaluate a constant expression without images")
    return np.full(shape, value, dtype=np.float64)


#: A value during evaluation, and whether the evaluator allocated it (so a
#: later operator may overwrite it) rather than fetched it.
_Value = tuple[np.ndarray, bool]


def _value(expr: Expr, fetch: Callable[[StageRef], np.ndarray]) -> _Value:
    if isinstance(expr, Const):
        return np.float64(expr.value), False
    if isinstance(expr, StageRef):
        return fetch(expr), False
    if isinstance(expr, UnaryOp):
        ufunc = np.absolute if expr.op == "abs" else np.negative
        return _apply(ufunc, _value(expr.operand, fetch))
    if isinstance(expr, BinOp):
        return _apply_binop(expr.op, _value(expr.left, fetch), _value(expr.right, fetch))
    if isinstance(expr, Call):
        return _apply_call(expr.fn, [_value(arg, fetch) for arg in expr.args])
    raise DSLSemanticError(f"Cannot evaluate expression node {expr!r}")


def _apply(function, *operands: _Value) -> _Value:
    """``function`` over ``operands``, written into an owned one of the result's shape.

    Without such an operand the result goes into a new float64 array
    (comparisons too, so their 0/1 needs no second pass), or, for scalar
    operands only, is a scalar.
    """
    values = [value for value, _ in operands]
    shape = out = None
    for value, owned in operands:
        if not value.shape:
            continue
        if shape is None:
            shape = value.shape
        elif value.shape != shape:  # shapes that broadcast: numpy allocates
            return function(*values), True
        if owned and out is None:
            out = value
    if shape is None:
        return _SCALAR_OPERATORS.get(function, function)(*values), False
    return function(*values, out=np.empty(shape) if out is None else out), True


#: Python's operators on NumPy scalars give the same IEEE results as the
#: ufuncs without the ufunc dispatch, which dominates a one-pixel evaluation.
_SCALAR_OPERATORS = {
    np.add: operator.add,
    np.subtract: operator.sub,
    np.multiply: operator.mul,
    np.negative: operator.neg,
    np.absolute: operator.abs,
    np.less: operator.lt,
    np.greater: operator.gt,
    np.less_equal: operator.le,
    np.greater_equal: operator.ge,
    np.equal: operator.eq,
    np.not_equal: operator.ne,
}


_ARITHMETIC = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
}
_COMPARISONS = {
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}


def _apply_binop(op: str, left: _Value, right: _Value) -> _Value:
    if op in _ARITHMETIC:
        return _apply(_ARITHMETIC[op], left, right)
    if op == "/":
        divisor = np.where(right[0] == 0, 1.0, right[0])
        return _apply(np.divide, left, (divisor, True))
    if op in _COMPARISONS:
        value, owned = _apply(_COMPARISONS[op], left, right)
        if value.dtype != np.float64:  # scalars, or shapes that broadcast
            value = value.astype(np.float64)
        return value, owned
    raise DSLSemanticError(f"Unsupported binary operator {op!r}")


def _apply_call(fn: str, args: list[_Value]) -> _Value:
    if fn == "abs":
        return _apply(np.absolute, args[0])
    if fn == "sqrt":
        return _apply(np.sqrt, _apply(np.maximum, args[0], (np.float64(0.0), False)))
    if fn in ("min", "max"):
        result = args[0]
        for arg in args[1:]:
            result = _apply(_ARITHMETIC[fn], result, arg)
        return result
    if fn == "clamp":
        # Not np.clip: it orders signed zeros differently for scalar bounds.
        # Maximum then minimum equals np.clip over full-array bounds on
        # every value, signed zeros and NaNs included.
        return _apply(np.minimum, _apply(np.maximum, args[0], args[1]), args[2])
    if fn == "select":
        (condition, _), (chosen, _), (other, _) = args
        result = np.where(condition != 0, chosen, other)
        return result, True
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
