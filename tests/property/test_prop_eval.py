"""Property tests for the pad-once evaluator: every tap equals a clip-gather.

``repro.dsl.ast.evaluate`` edge-pads each producer once and serves every
reference as a zero-copy slice of the padded copy, and it accumulates into
temporaries it allocated itself.  Hypothesis builds random pipelines whose
stage expressions use every binary operator (division by zero included),
negation, ``abs``, all six intrinsics, constant-only subtrees and
constant-only stages, reading producers up to twice the frame size past the
border and up to three frames back.  Inputs are single 2-D frames, ``fyx``
batches and ``tyx`` sequences.  The properties:

* ``run_functional`` equals, byte for byte, a test-local oracle that
  gathers each tap with clipped fancy indices and allocates a fresh array
  for every node, constants included (the evaluator before padding);
* the inputs come back byte-unchanged from ``run_functional`` and from
  ``simulate_design``, and no stage image shares memory with an input or
  with another stage's image.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import compile_pipeline
from repro.api import CompileTarget
from repro.dsl import ast
from repro.dsl.builder import PipelineBuilder
from repro.ir.stencil import StencilWindow
from repro.rtl import elaborate_design, generate_verilog, simulate_design
from repro.sim.functional import run_functional

W, H = 7, 5
CONSTANTS = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 255.0)
#: Pixel values, weighted towards the IEEE edge cases: signed zeros (which
#: min, max and clamp order), zero divisors, ties for the comparisons, and
#: rarely an infinity or a NaN.
PIXELS = np.array([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 7.0, 255.0, np.inf, -np.inf, np.nan])
PIXEL_WEIGHTS = np.array([4, 3, 3, 2, 2, 2, 2, 2, 1, 1, 1]) / 23
BINARY_OPS = ("+", "-", "*", "/", "min", "max", "<", ">", "<=", ">=", "==", "!=")


# ---------------------------------------------------------------------------
# The oracle: clipped fancy-index gathers and a fresh array per node
# ---------------------------------------------------------------------------
def shifted(image: np.ndarray, dx: int, dy: int, dt: int = 0) -> np.ndarray:
    """``image`` sampled at ``(x + dx, y + dy)`` and frame ``t + dt``, edge-clamped."""
    height, width = image.shape[-2], image.shape[-1]
    ys = np.clip(np.arange(height) + dy, 0, height - 1)
    xs = np.clip(np.arange(width) + dx, 0, width - 1)
    out = image[..., ys[:, None], xs[None, :]]
    if dt == 0:
        return out
    frames = image.shape[-3]
    ts = np.clip(np.arange(frames) + dt, 0, frames - 1)
    return np.take(out, ts, axis=image.ndim - 3)


BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: np.divide(a, np.where(b == 0, 1.0, b)),
    "min": np.minimum,
    "max": np.maximum,
    "<": lambda a, b: (a < b).astype(np.float64),
    ">": lambda a, b: (a > b).astype(np.float64),
    "<=": lambda a, b: (a <= b).astype(np.float64),
    ">=": lambda a, b: (a >= b).astype(np.float64),
    "==": lambda a, b: (a == b).astype(np.float64),
    "!=": lambda a, b: (a != b).astype(np.float64),
}


def oracle(expr: ast.Expr, images: dict, shape: tuple) -> np.ndarray:
    if isinstance(expr, ast.Const):
        return np.full(shape, expr.value, dtype=np.float64)
    if isinstance(expr, ast.StageRef):
        return shifted(images[expr.stage], expr.dx, expr.dy, expr.dt)
    if isinstance(expr, ast.UnaryOp):
        value = oracle(expr.operand, images, shape)
        return np.abs(value) if expr.op == "abs" else -value
    if isinstance(expr, ast.BinOp):
        left = oracle(expr.left, images, shape)
        return BINOPS[expr.op](left, oracle(expr.right, images, shape))
    args = [oracle(arg, images, shape) for arg in expr.args]
    if expr.fn == "abs":
        return np.abs(args[0])
    if expr.fn == "sqrt":
        return np.sqrt(np.maximum(args[0], 0.0))
    if expr.fn in ("min", "max"):
        result = args[0]
        for arg in args[1:]:
            result = BINOPS[expr.fn](result, arg)
        return result
    if expr.fn == "clamp":
        return np.clip(args[0], args[1], args[2])
    return np.where(args[0] != 0, args[1], args[2])


# ---------------------------------------------------------------------------
# Random pipelines
# ---------------------------------------------------------------------------
def expressions(leaves):
    def extend(children):
        return st.one_of(
            st.builds(ast.BinOp, st.sampled_from(BINARY_OPS), children, children),
            st.builds(ast.UnaryOp, st.sampled_from(("-", "abs")), children),
            st.builds(ast.Call, st.sampled_from(("abs", "sqrt")), st.tuples(children)),
            st.builds(
                ast.Call,
                st.sampled_from(("min", "max")),
                st.lists(children, min_size=2, max_size=3).map(tuple),
            ),
            st.builds(
                ast.Call,
                st.sampled_from(("clamp", "select")),
                st.tuples(children, children, children),
            ),
        )

    return st.recursive(leaves, extend, max_leaves=8)


CONSTANT_LEAVES = st.sampled_from(CONSTANTS).map(ast.Const)
#: References name a producer by index; :func:`bind` picks the stage.
REF_LEAVES = st.builds(
    ast.StageRef,
    st.sampled_from("0123"),
    st.integers(-2 * W, 2 * W),
    st.integers(-2 * H, 2 * H),
    st.integers(-3, 0),
)
EXPRESSIONS = expressions(st.one_of(REF_LEAVES, CONSTANT_LEAVES))
CONSTANT_EXPRESSIONS = expressions(CONSTANT_LEAVES)


def bind(expr: ast.Expr, names: list[str], temporal: bool) -> ast.Expr:
    """``expr`` reading ``names`` (by index, modulo), frame offsets only if ``temporal``."""
    if isinstance(expr, ast.StageRef):
        stage = names[int(expr.stage) % len(names)]
        return ast.StageRef(stage, expr.dx, expr.dy, expr.dt if temporal else 0)
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, bind(expr.operand, names, temporal))
    if isinstance(expr, ast.BinOp):
        left, right = (bind(side, names, temporal) for side in (expr.left, expr.right))
        return ast.BinOp(expr.op, left, right)
    if isinstance(expr, ast.Call):
        return ast.Call(expr.fn, tuple(bind(arg, names, temporal) for arg in expr.args))
    return expr


@st.composite
def pipelines(draw):
    """``(dag, axes, inputs)``: 1-2 inputs, then 1-3 stages, all outputs."""
    axes = draw(st.sampled_from(("yx", "fyx", "tyx")))
    builder = PipelineBuilder("prop-eval")
    names = [builder.input("K0").name]
    if draw(st.booleans()):
        names.append(builder.input("K1").name)
    for index in range(draw(st.integers(1, 3))):
        constant_only = draw(st.integers(0, 4)) == 0
        expr = draw(CONSTANT_EXPRESSIONS if constant_only else EXPRESSIONS)
        expr = bind(expr, names, temporal=axes == "tyx")
        # Every input feeds the first stage, and a stage whose expression
        # reads nothing keeps its predecessor as a structural producer.
        reads = {name: StencilWindow.point() for name in names} if index == 0 else {}
        if not ast.references_by_stage(expr):
            reads[names[-1]] = StencilWindow.point()
        names.append(builder.stage(f"S{index}", expr, reads=reads, is_output=True).name)
    dag = builder.build()
    frames = () if axes == "yx" else (draw(st.integers(1, 4)),)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    inputs = {
        stage.name: rng.choice(PIXELS, size=(*frames, H, W), p=PIXEL_WEIGHTS)
        for stage in dag.input_stages()
    }
    return dag, axes, inputs


def stage_names(dag) -> list[str]:
    return [stage.name for stage in dag.stages() if not stage.is_input]


def assert_no_aliasing(images: dict, inputs: dict) -> None:
    for name, image in images.items():
        for source in inputs.values():
            assert not np.may_share_memory(image, source), name
    for (a, first), (b, second) in itertools.combinations(images.items(), 2):
        assert not np.may_share_memory(first, second), (a, b)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=pipelines())
def test_run_functional_matches_clip_gather_oracle(case):
    dag, axes, inputs = case
    before = {name: image.tobytes() for name, image in inputs.items()}
    with np.errstate(all="ignore"):  # infinities and NaNs are inputs here
        result = run_functional(dag, inputs, axes=axes)
        assert {name: image.tobytes() for name, image in inputs.items()} == before

        expected = dict(inputs)
        shape = next(iter(inputs.values())).shape
        for name in stage_names(dag):
            expected[name] = oracle(dag.stage(name).expression, expected, shape)
            assert result.images[name].shape == shape
            assert result.images[name].tobytes() == expected[name].tobytes(), name
    assert_no_aliasing({name: result.images[name] for name in stage_names(dag)}, inputs)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=pipelines().filter(lambda case: case[1] != "yx"))
def test_simulate_design_leaves_inputs_alone(case):
    dag, _, inputs = case
    schedule = compile_pipeline(CompileTarget(dag, image_width=W, image_height=H)).schedule
    design = elaborate_design(generate_verilog(schedule), schedule.dag)
    before = {name: image.tobytes() for name, image in inputs.items()}
    with np.errstate(all="ignore"):
        simulated = simulate_design(design, schedule, inputs)
    assert {name: image.tobytes() for name, image in inputs.items()} == before
    assert_no_aliasing(simulated.outputs, inputs)
