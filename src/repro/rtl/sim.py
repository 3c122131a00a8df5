"""Pure-Python cycle-accurate simulation of the generated Verilog.

Stability: stable.

:func:`generate_verilog` emits a fixed, schematic subset of Verilog: a
cycle-counter controller, per-stage activation constants, one line buffer per
producer, window shift arrays, and purely combinational stage datapaths.
This module closes the verification gap between "the schedule is legal" and
"the emitted artifact works": it **elaborates** that source back into a
timing model (reusing :mod:`repro.rtl.lint`'s structural pass, then parsing
the numeric constants the generator printed — start cycles, image width,
line-buffer slot counts, the output mux) and **simulates** it two-state and
cycle-driven, whole rows at a time with NumPy.

The simulation is faithful to the storage and timing of the design, not to
its fixed-point bit patterns: arithmetic evaluates the stage DSL expressions
in float64 (exactly as :func:`repro.sim.functional.run_functional` does), but
every producer reference is served **through the elaborated line buffer** —
read-first SRAM semantics, ``lines``-slot rotation, activation offsets from
the parsed start cycles.  A pixel that the hardware would read before its
producer wrote it (R1 violation), or after its slot was recycled (R2
violation), comes back as the two-state ``X -> 0.0`` — so any illegal or
tampered schedule diverges from the functional replay instead of silently
passing.  When the schedule is legal, the resident row is provably the
requested row and the simulation is bit-exact with
:func:`repro.sim.batch.replay_frames`.

The residency model, per consumer read of producer ``P`` at stencil offset
``(dx, dy)`` over an edge with window top ``min_dy``:

* the consumer computing output row ``y`` occupies hardware raster position
  ``raster = clip(y + min_dy)``, column ``X = clip(x + dx)`` — the cycle is
  ``t = S_C + raster*W + X``;
* the writer put row ``r``, column ``X`` into the buffer at cycle
  ``S_P + r*W + X`` and a read at ``t`` sees it only when strictly earlier
  (read-first port), so the newest available row is
  ``avail = min(H-1, (t - S_P - X - 1) // W)``;
* the slot holding the requested row ``L = clip(y + dy)`` was last written
  by row ``R = L + lines * ((avail - L) // lines)`` — the greatest row
  congruent to ``L`` modulo ``lines`` that has been written; ``R == L``
  exactly when the schedule satisfies R1/R2, ``R < 0`` means the slot is
  still uninitialised (``X`` state).

An external HDL simulator (Icarus/Verilator) is an optional dependency gated
exactly like the solver backends: autodetected on ``PATH`` or named via
``REPRO_HDL_SIM``, and when present the generated source is additionally
syntax-checked through it (recorded in the verdict, never required).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro.dsl import ast
from repro.errors import SimulationError
from repro.ir.dag import PipelineDAG
from repro.ir.traversal import topological_order
from repro.rtl.expressions import sanitize
from repro.rtl.lint import lint_verilog
from repro.sim.batch import golden_frames, output_digest
from repro.trace import span_attr, trace_span

__all__ = [
    "ElaboratedDesign",
    "RTLSimResult",
    "elaborate_design",
    "simulate_design",
    "simulate_design_loop",
    "rtl_replay",
    "measure_performance",
    "external_simulator",
    "check_external_syntax",
]

_ACTIVE_RE = re.compile(
    r"wire active_([A-Za-z0-9_$]+) = running && \(cycle >= 32'd(\d+)\);"
)
_TOTAL_RE = re.compile(r"if \(cycle >= 32'd(\d+)\) begin")
_WIDTH_RE = re.compile(r"= pos_[A-Za-z0-9_$]+ % 32'd(\d+);")
_PIXEL_BITS_RE = re.compile(r"input\s+wire\s+\[(\d+):0\]\s*pixel_in")
_OUTPUT_RE = re.compile(r"assign pixel_out = pixel_([A-Za-z0-9_$]+);")
_WR_LINE_RE = re.compile(r"\.wr_line\(line_([A-Za-z0-9_$]+)\[\d+:0\] % (\d+)\)")


@dataclass(frozen=True)
class ElaboratedDesign:
    """The timing model recovered from one generated Verilog source.

    Every field is parsed back out of the *source text*, not taken from the
    schedule — that is the point: a schedule/source mismatch (codegen drift,
    a tampered constant) shows up as a simulation or performance divergence
    instead of being masked by trusting the schedule.
    """

    top_module: str
    image_width: int
    pixel_bits: int
    total_cycles: int
    #: Stage name (original DAG spelling) -> parsed activation start cycle.
    start_cycles: dict[str, int] = field(default_factory=dict)
    #: Producer stage name -> parsed line-buffer slot count.
    buffer_lines: dict[str, int] = field(default_factory=dict)
    #: Output stage names in DAG order (``pixel_out`` muxes the first).
    output_stages: tuple[str, ...] = ()
    module_names: tuple[str, ...] = ()


def elaborate_design(source: str, dag: PipelineDAG) -> ElaboratedDesign:
    """Parse one generated source back into an :class:`ElaboratedDesign`.

    Runs the structural linter first (lint errors are elaboration errors),
    then recovers the numeric constants the generator printed.  Raises
    :class:`~repro.errors.SimulationError` when the source does not look like
    the generator's dialect or disagrees structurally with ``dag``.
    """
    report = lint_verilog(source)
    if not report.ok:
        raise SimulationError(
            "RTL source fails structural lint: " + "; ".join(report.errors[:3])
        )

    names = {}
    for stage in dag.stage_names():
        key = sanitize(stage)
        if key in names:
            raise SimulationError(
                f"Stage names {names[key]!r} and {stage!r} collide after sanitization"
            )
        names[key] = stage

    starts: dict[str, int] = {}
    for key, cycles in _ACTIVE_RE.findall(source):
        if key in names:
            starts[names[key]] = int(cycles)
    missing = [s for s in dag.stage_names() if s not in starts]
    if missing:
        raise SimulationError(
            f"RTL source has no activation constant for stage(s) {missing}"
        )

    widths = {int(w) for w in _WIDTH_RE.findall(source)}
    if len(widths) != 1:
        raise SimulationError(
            f"RTL source has {'conflicting' if widths else 'no'} raster width "
            f"constants: {sorted(widths)}"
        )
    image_width = widths.pop()

    totals = _TOTAL_RE.findall(source)
    if not totals:
        raise SimulationError("RTL source has no frame-controller stop constant")
    total_cycles = int(totals[0])

    bits = _PIXEL_BITS_RE.search(source)
    pixel_bits = int(bits.group(1)) + 1 if bits else 32

    out = _OUTPUT_RE.search(source)
    if out is None:
        raise SimulationError("RTL source never drives pixel_out")
    output_keys = {sanitize(s.name): s.name for s in dag.output_stages()}
    if out.group(1) not in output_keys:
        raise SimulationError(
            f"pixel_out is driven by {out.group(1)!r}, which is not an output stage"
        )

    buffer_lines: dict[str, int] = {}
    for key, lines in _WR_LINE_RE.findall(source):
        if key in names:
            buffer_lines[names[key]] = int(lines)

    tops = report.top_modules
    top = next((t for t in tops if t.startswith("accelerator_")), tops[0] if tops else "")
    return ElaboratedDesign(
        top_module=top,
        image_width=image_width,
        pixel_bits=pixel_bits,
        total_cycles=total_cycles,
        start_cycles=starts,
        buffer_lines=buffer_lines,
        output_stages=tuple(s.name for s in dag.output_stages()),
        module_names=tuple(report.modules),
    )


@dataclass
class RTLSimResult:
    """Outcome of streaming frames through an elaborated design."""

    outputs: dict[str, np.ndarray]
    digest: str
    frames: int
    cycles_per_frame: int
    initiation_interval: int
    startup_cycles: int


# --------------------------------------------------------------------------
# The cycle-driven core
# --------------------------------------------------------------------------
def _line_buffer_tap(
    design: ElaboratedDesign,
    producer_image: np.ndarray,
    *,
    start_producer: int,
    start_consumer: int,
    lines: int,
    min_dy: int,
    dx: int,
    dy: int,
    fifo: bool = False,
) -> np.ndarray:
    """One whole-frame read of a producer through its elaborated line buffer.

    Vectorized over the full (H, W) output plane; implements the residency
    model from the module docstring.  Values whose slot is still
    uninitialised at read time come back as 0.0 (two-state ``X``).

    ``fifo`` switches to SODA's semantics: each consumer's split chain is a
    pure delay line *sized to its schedule by construction* — there are no
    slots to recycle, so eviction cannot happen (the event-walk legality
    checker skips R2/R3 for FIFO buffers for the same reason) and the only
    timing hazard left is causality: the wanted pixel must have been pushed
    strictly before the read.
    """
    height, width = producer_image.shape
    ys = np.arange(height)
    xs = np.arange(width)
    raster = np.clip(ys + min_dy, 0, height - 1)
    wanted = np.clip(ys + dy, 0, height - 1)
    cols = np.clip(xs + dx, 0, width - 1)
    delta = start_consumer - start_producer

    if fifo:
        # Push of row ``wanted`` passed this column at S_P + wanted*W; the
        # read happens at S_C + raster*W (column terms align — the window
        # shift registers absorb dx).
        lag = delta + (raster - wanted) * width
        fresh = lag >= 1
        out = producer_image[np.where(fresh, wanted, 0)[:, None], cols[None, :]]
        out[~fresh] = 0.0
        return out

    # Read and write touch the same column, so the column term cancels and
    # availability is per *row*: the newest row written before the read of
    # raster row R is R + floor((delta - 1) / W).
    avail = np.minimum(raster + (delta - 1) // width, height - 1)
    resident = wanted + lines * ((avail - wanted) // lines)
    fresh = resident == wanted  # (H,) — whole rows are fresh or stale

    out = producer_image[np.where(fresh, wanted, 0)[:, None], cols[None, :]]
    out[~fresh] = 0.0
    return out


def _resolve_origin(dag: PipelineDAG, name: str, seen: set[str] | None = None) -> str:
    """Follow relay/identity/virtual chains back to the originating stage."""
    seen = seen or set()
    if name in seen:
        return name
    seen.add(name)
    stage = dag.stage(name)
    if stage.virtual_of is not None:
        return _resolve_origin(dag, stage.virtual_of, seen)
    expr = stage.expression
    if expr is None:
        edges = dag.in_edges(name)
        if edges:
            return _resolve_origin(dag, edges[0].producer, seen)
        return name
    if isinstance(expr, ast.StageRef) and expr.dx == 0 and expr.dy == 0 and expr.dt == 0:
        return _resolve_origin(dag, expr.stage, seen)
    return name


def _resolve_edge(dag: PipelineDAG, consumer: str, producer: str):
    """The in-edge of ``consumer`` carrying data that originates at ``producer``.

    Direct edges win; otherwise rewrites (Darkroom relays, coalescing virtual
    stages) leave the expression referencing the origin while the data routes
    through an intermediate — follow each in-edge's origin chain.
    """
    edges = dag.in_edges(consumer)
    for edge in edges:
        if edge.producer == producer:
            return edge
    for edge in edges:
        if _resolve_origin(dag, edge.producer, set()) == producer:
            return edge
    return None


class _FrameContext:
    """Per-frame evaluation state: this frame's images plus the history."""

    def __init__(
        self,
        design: ElaboratedDesign,
        schedule,
        frame_index: int,
        history: dict[str, list[np.ndarray]],
    ) -> None:
        self.design = design
        self.schedule = schedule
        self.dag: PipelineDAG = schedule.dag
        self.frame = frame_index
        self.history = history
        self.images: dict[str, np.ndarray] = {}

    # -- spatial reads (through the elaborated line buffer) -----------------
    def edge_tap(self, consumer: str, edge, dx: int, dy: int) -> np.ndarray:
        producer = edge.producer
        lines = self.design.buffer_lines.get(producer)
        image = self.images[producer]
        if lines is None:
            # No elaborated buffer instance: the value arrives over a plain
            # wire, but the read must still be causal — one slot per row.
            lines = image.shape[0]
        config = self.schedule.line_buffers.get(producer)
        return _line_buffer_tap(
            self.design,
            image,
            start_producer=self.design.start_cycles[edge.producer],
            start_consumer=self.design.start_cycles[consumer],
            lines=lines,
            min_dy=edge.window.min_dy,
            dx=dx,
            dy=dy,
            fifo=config is not None and config.style == "fifo",
        )

    # -- temporal reads (through the frame buffer) --------------------------
    def frame_tap(self, consumer: str, ref: ast.StageRef) -> np.ndarray:
        if ref.dt > 0:
            raise SimulationError(
                f"Stage {consumer!r} reads {ref.stage!r} at future frame "
                f"offset dt={ref.dt}; the hardware cannot realize it"
            )
        producer = ref.stage
        effective = max(0, self.frame + ref.dt)
        needed = self.frame - effective
        base: np.ndarray
        if needed == 0:
            base = self.images[producer]
        else:
            buffer = self.schedule.frame_buffers.get(producer)
            if buffer is None:
                edge = _resolve_edge(self.dag, consumer, producer)
                if edge is not None:
                    buffer = self.schedule.frame_buffers.get(edge.producer)
            height, width = self.images[producer].shape
            if (
                buffer is None
                or buffer.depth < needed
                or buffer.image_width != width
                or buffer.image_height != height
            ):
                return np.zeros((height, width), dtype=np.float64)
            base = self.history[producer][effective]
        return ast._shifted(base, ref.dx, ref.dy)

    # -- reference dispatch -------------------------------------------------
    def fetch(self, consumer: str, ref: ast.StageRef) -> np.ndarray:
        if ref.dt != 0:
            return self.frame_tap(consumer, ref)
        edge = _resolve_edge(self.dag, consumer, ref.stage)
        if edge is None:
            # Not routed through storage this model elaborates (e.g. a
            # coalesced group's internal wire): the value arrives
            # combinationally, identical to the functional semantics.
            return ast._shifted(self.images[ref.stage], ref.dx, ref.dy)
        return self.edge_tap(consumer, edge, ref.dx, ref.dy)

    def evaluate(self, consumer: str, expr: ast.Expr, shape) -> np.ndarray:
        """Mirror of :func:`repro.dsl.ast.evaluate` with buffered reads."""
        if isinstance(expr, ast.Const):
            return np.full(shape, expr.value, dtype=np.float64)
        if isinstance(expr, ast.StageRef):
            return self.fetch(consumer, expr)
        if isinstance(expr, ast.UnaryOp):
            value = self.evaluate(consumer, expr.operand, shape)
            return np.abs(value) if expr.op == "abs" else -value
        if isinstance(expr, ast.BinOp):
            left = self.evaluate(consumer, expr.left, shape)
            right = self.evaluate(consumer, expr.right, shape)
            return ast._apply_binop(expr.op, left, right)
        if isinstance(expr, ast.Call):
            args = [self.evaluate(consumer, arg, shape) for arg in expr.args]
            return ast._apply_call(expr.fn, args)
        raise SimulationError(f"Cannot simulate expression node {expr!r}")

    def run_stage(self, name: str) -> np.ndarray:
        """One stage's full output frame, mirroring ``run_functional``'s
        fast paths so a legal design is bit-exact with the replay."""
        dag = self.dag
        stage = dag.stage(name)
        in_edges = dag.in_edges(name)
        expr = stage.expression
        if expr is None:
            if not in_edges:
                raise SimulationError(f"Stage {name!r} has no expression and no inputs")
            return self.edge_tap(name, in_edges[0], 0, 0)
        if isinstance(expr, ast.StageRef) and expr.dx == 0 and expr.dy == 0 and expr.dt == 0:
            edge = _resolve_edge(dag, name, expr.stage)
            if edge is None:
                return self.images[expr.stage].copy()
            return self.edge_tap(name, edge, 0, 0)
        shape = next(iter(self.images.values())).shape
        return self.evaluate(name, expr, shape)


def simulate_design(
    design: ElaboratedDesign, schedule, inputs: dict[str, np.ndarray]
) -> RTLSimResult:
    """Stream ``(frames, H, W)`` input stacks through the elaborated design.

    Frames stream back to back: the controller restarts per frame (line
    buffers reset; their state never carries across frames), while frame
    buffers retain their rotating history — the same contract the generated
    controller implements.  Returns the output stacks, their digest, and the
    measured per-frame cycle counts.
    """
    dag: PipelineDAG = schedule.dag
    stacks = {name: np.asarray(stack, dtype=np.float64) for name, stack in inputs.items()}
    for stage in dag.input_stages():
        if stage.name not in stacks:
            raise SimulationError(f"No input stack supplied for input stage {stage.name!r}")
        if stacks[stage.name].ndim != 3:
            raise SimulationError(
                f"Input stack for {stage.name!r} must be (frames, height, width)"
            )
    shapes = {stacks[s.name].shape for s in dag.input_stages()}
    if len(shapes) != 1:
        raise SimulationError(f"Input stacks must share one shape, got {shapes}")
    frames, height, width = shapes.pop()
    if width != design.image_width:
        raise SimulationError(
            f"Design rasterizes width {design.image_width}, inputs are {width} wide"
        )

    with trace_span("rtl_sim", frames=frames):
        order = [name for name in topological_order(dag)]
        history: dict[str, list[np.ndarray]] = {name: [] for name in dag.stage_names()}
        for f in range(frames):
            context = _FrameContext(design, schedule, f, history)
            for name in order:
                stage = dag.stage(name)
                if stage.is_input:
                    context.images[name] = stacks[name][f]
                else:
                    context.images[name] = context.run_stage(name)
            for name, image in context.images.items():
                history[name].append(image)
        outputs = {
            name: np.stack(history[name]) for name in design.output_stages
        }
        achieved = measure_performance(design, height)["cycles_per_frame"]
        span_attr(cycles_per_frame=achieved)

    return RTLSimResult(
        outputs=outputs,
        digest=output_digest(outputs),
        frames=frames,
        cycles_per_frame=achieved,
        initiation_interval=width * height,
        startup_cycles=achieved - width * height,
    )


def simulate_design_loop(
    design: ElaboratedDesign, schedule, inputs: dict[str, np.ndarray]
) -> RTLSimResult:
    """Per-pixel reference implementation of :func:`simulate_design`.

    Evaluates every output pixel through scalar (0-d NumPy) arithmetic — the
    oracle the row-vectorized path is benchmarked and property-tested
    against.  Semantics are identical by construction; only the iteration
    granularity differs.
    """
    dag: PipelineDAG = schedule.dag
    stacks = {name: np.asarray(stack, dtype=np.float64) for name, stack in inputs.items()}
    frames, height, width = next(iter(stacks.values())).shape

    def tap_scalar(context, consumer, edge, dx, dy, y, x):
        producer = edge.producer
        image = context.images[producer]
        lines = design.buffer_lines.get(producer, height)
        raster = min(max(y + edge.window.min_dy, 0), height - 1)
        wanted = min(max(y + dy, 0), height - 1)
        col = min(max(x + dx, 0), width - 1)
        delta = design.start_cycles[consumer] - design.start_cycles[producer]
        avail = min(raster + (delta - 1) // width, height - 1)
        config = schedule.line_buffers.get(producer)
        if config is not None and config.style == "fifo":
            lag = delta + (raster - wanted) * width
            if lag < 1:
                return np.float64(0.0)
        else:
            resident = wanted + lines * ((avail - wanted) // lines)
            if resident != wanted:
                return np.float64(0.0)
        return image[wanted, col]

    def eval_scalar(context, consumer, expr, y, x):
        if isinstance(expr, ast.Const):
            return np.float64(expr.value)
        if isinstance(expr, ast.StageRef):
            if expr.dt != 0:
                plane = context.frame_tap(consumer, expr)
                return plane[y, x]
            edge = _resolve_edge(dag, consumer, expr.stage)
            if edge is None:
                image = context.images[expr.stage]
                yy = min(max(y + expr.dy, 0), height - 1)
                xx = min(max(x + expr.dx, 0), width - 1)
                return image[yy, xx]
            return tap_scalar(context, consumer, edge, expr.dx, expr.dy, y, x)
        if isinstance(expr, ast.UnaryOp):
            value = eval_scalar(context, consumer, expr.operand, y, x)
            return np.abs(value) if expr.op == "abs" else -value
        if isinstance(expr, ast.BinOp):
            left = eval_scalar(context, consumer, expr.left, y, x)
            right = eval_scalar(context, consumer, expr.right, y, x)
            return ast._apply_binop(expr.op, left, right)
        if isinstance(expr, ast.Call):
            args = [eval_scalar(context, consumer, arg, y, x) for arg in expr.args]
            return ast._apply_call(expr.fn, args)
        raise SimulationError(f"Cannot simulate expression node {expr!r}")

    history: dict[str, list[np.ndarray]] = {name: [] for name in dag.stage_names()}
    order = [name for name in topological_order(dag)]
    for f in range(frames):
        context = _FrameContext(design, schedule, f, history)
        for name in order:
            stage = dag.stage(name)
            if stage.is_input:
                context.images[name] = stacks[name][f]
                continue
            expr = stage.expression
            out = np.empty((height, width), dtype=np.float64)
            in_edges = dag.in_edges(name)
            for y in range(height):
                for x in range(width):
                    if expr is None:
                        out[y, x] = tap_scalar(context, name, in_edges[0], 0, 0, y, x)
                    elif (
                        isinstance(expr, ast.StageRef)
                        and expr.dx == 0
                        and expr.dy == 0
                        and expr.dt == 0
                    ):
                        edge = _resolve_edge(dag, name, expr.stage)
                        if edge is None:
                            out[y, x] = context.images[expr.stage][y, x]
                        else:
                            out[y, x] = tap_scalar(context, name, edge, 0, 0, y, x)
                    else:
                        out[y, x] = eval_scalar(context, name, expr, y, x)
            context.images[name] = out
        for name, image in context.images.items():
            history[name].append(image)

    outputs = {name: np.stack(history[name]) for name in design.output_stages}
    achieved = measure_performance(design, height)["cycles_per_frame"]
    return RTLSimResult(
        outputs=outputs,
        digest=output_digest(outputs),
        frames=frames,
        cycles_per_frame=achieved,
        initiation_interval=width * height,
        startup_cycles=achieved - width * height,
    )


def rtl_replay(
    schedule, *, frames: int = 2, seed: int = 0, source: str | None = None
) -> RTLSimResult:
    """Golden-frame RTL replay of one schedule (elaborate + simulate)."""
    from repro.rtl.generator import generate_verilog

    if source is None:
        source = generate_verilog(schedule)
    design = elaborate_design(source, schedule.dag)
    inputs = golden_frames(
        schedule.dag,
        schedule.image_width,
        schedule.image_height,
        frames=frames,
        seed=seed,
    )
    return simulate_design(design, schedule, inputs)


# --------------------------------------------------------------------------
# Performance measurement
# --------------------------------------------------------------------------
def measure_performance(
    design: ElaboratedDesign, image_height: int, *, bound_cycles: int | None = None
) -> dict:
    """Achieved cycles/frame and initiation interval of the elaborated design.

    All numbers come from the *parsed* source: the last output pixel leaves
    ``W*H`` cycles (the initiation interval — one pixel per cycle) after the
    latest output stage activates, and the controller holds the frame until
    its own stop constant.  A drifted or tampered generator therefore shows
    up as ``achieved > bound`` even though source and bound were derived
    from the same schedule object.  When ``bound_cycles`` (typically
    ``schedule.end_to_end_latency_cycles``) is given, the payload carries
    the pass verdict.
    """
    starts = [design.start_cycles[name] for name in design.output_stages]
    latest = max(starts) if starts else 0
    interval = design.image_width * image_height
    achieved = max(latest + interval, design.total_cycles)
    payload = {
        "cycles_per_frame": achieved,
        "initiation_interval": interval,
        "startup_cycles": latest,
        "controller_cycles": design.total_cycles,
    }
    if bound_cycles is not None:
        payload["bound_cycles_per_frame"] = int(bound_cycles)
        payload["passed"] = achieved <= bound_cycles
    return payload


# --------------------------------------------------------------------------
# Optional external HDL simulator
# --------------------------------------------------------------------------
_HDL_TOOLS = ("iverilog", "verilator")
_HDL_DISABLED = {"", "0", "off", "none"}


def external_simulator() -> str | None:
    """Name/path of an external HDL tool, or ``None`` when unavailable.

    ``REPRO_HDL_SIM`` overrides autodetection: a command to use, or one of
    ``0``/``off``/``none`` to force the pure-Python path even when a tool is
    on ``PATH`` — the same opt-out convention as the solver backends.
    """
    override = os.environ.get("REPRO_HDL_SIM")
    if override is not None:
        return None if override.strip().lower() in _HDL_DISABLED else override
    for tool in _HDL_TOOLS:
        if shutil.which(tool):
            return tool
    return None


def check_external_syntax(source: str, tool: str) -> dict:
    """Syntax-check ``source`` through an external HDL tool, best effort.

    Returns ``{"tool", "ok", "detail"}``; a missing or crashing tool is
    reported, never raised — the external path is strictly additive.
    """
    with tempfile.NamedTemporaryFile("w", suffix=".v", delete=False) as handle:
        handle.write(source)
        path = handle.name
    base = os.path.basename(tool).lower()
    if "verilator" in base:
        command = [tool, "--lint-only", "-Wno-fatal", path]
    else:
        command = [tool, "-t", "null", path]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=60, check=False
        )
        detail = (proc.stderr or proc.stdout or "").strip()
        return {"tool": tool, "ok": proc.returncode == 0, "detail": detail[:2000]}
    except (OSError, subprocess.SubprocessError) as exc:
        return {"tool": tool, "ok": None, "detail": str(exc)[:2000]}
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass
