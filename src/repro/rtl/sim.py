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
cycle-driven, whole frames at a time with NumPy.

The simulation is faithful to the storage and timing of the design, not to
its fixed-point bit patterns: it shares the replay's evaluator and stage
walker (:func:`repro.sim.functional.run_functional`), so arithmetic is the
stage DSL expressions in float64, not the emitted Q24.8 datapath, but
every producer reference is served **through the elaborated line buffer** —
read-first SRAM semantics, ``lines``-slot rotation, activation offsets from
the parsed start cycles.  A pixel that the hardware would read before its
producer wrote it (R1 violation), or after its slot was recycled (R2
violation), comes back as the two-state ``X -> 0.0`` — so any illegal or
tampered schedule diverges from the functional replay instead of silently
passing.  When the schedule is legal, the resident row is provably the
requested row and the simulation is bit-exact with
:func:`repro.sim.batch.replay_frames`.  "Bit-exact" therefore pins storage
and timing under the DSL's float64 arithmetic; it says nothing about the
fixed-point arithmetic the emitted Verilog computes.

Like the hardware, which reads its window rows straight out of the line
buffer, a read copies nothing: each stage's frame is edge-padded once as it
is stored, by the union of the offsets of every read it serves, and every
read is a view of a padded frame.  Only a read that finds some rows stale
copies the view, to zero those rows.

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
from functools import lru_cache, partial

import numpy as np

from repro.dsl import ast
from repro.errors import SimulationError
from repro.ir.dag import PipelineDAG
from repro.ir.stencil import StencilWindow
from repro.rtl.expressions import sanitize
from repro.rtl.lint import lint_verilog
from repro.sim.batch import golden_frames, output_digest
from repro.sim.functional import _walk_stages
from repro.trace import span_attr, trace_span

__all__ = [
    "ElaboratedDesign",
    "RTLSimResult",
    "elaborate_design",
    "simulate_design",
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
@lru_cache(maxsize=1024)
def _stale_rows(
    height: int, width: int, delta: int, lines: int, min_dy: int, dy: int, fifo: bool
) -> np.ndarray | None:
    """The output rows whose read at row offset ``dy`` misses its producer row.

    Implements the residency model from the module docstring, with
    ``delta = S_C - S_P`` the consumer's start-cycle lead over the producer.
    Read and write touch the same column, so the column term cancels: whole
    rows are fresh or stale, whatever the read's ``dx``.  ``None`` when every
    row is fresh.  The rows depend on the timing alone, never on the pixels,
    so each answer is computed once (and is read-only).

    ``fifo`` switches to SODA's semantics: each consumer's split chain is a
    pure delay line *sized to its schedule by construction* — there are no
    slots to recycle, so eviction cannot happen (the event-walk legality
    checker skips R2/R3 for FIFO buffers for the same reason) and the only
    timing hazard left is causality: the wanted pixel must have been pushed
    strictly before the read.
    """
    ys = np.arange(height)
    raster = np.clip(ys + min_dy, 0, height - 1)
    wanted = np.clip(ys + dy, 0, height - 1)
    if fifo:
        # Push of row ``wanted`` passed this column at S_P + wanted*W; the
        # read happens at S_C + raster*W (column terms align — the window
        # shift registers absorb dx).
        fresh = delta + (raster - wanted) * width >= 1
    else:
        # The newest row written before the read of raster row R is
        # R + floor((delta - 1) / W).
        avail = np.minimum(raster + (delta - 1) // width, height - 1)
        fresh = wanted + lines * ((avail - wanted) // lines) == wanted
    if fresh.all():
        return None
    stale = ~fresh
    stale.flags.writeable = False
    return stale


def _line_buffer_tap(view: np.ndarray, stale: np.ndarray | None) -> np.ndarray:
    """One whole-frame read of a producer through its elaborated line buffer.

    ``view`` is the producer's frame at the read's offset, and ``stale`` the
    rows whose slot no longer (or not yet) holds the wanted row
    (:func:`_stale_rows`).  A fresh read is the view itself, as the hardware
    reads its window rows straight out of the buffer; otherwise a copy with
    the stale rows read as 0.0 (two-state ``X``).
    """
    if stale is None:
        return view
    out = view.copy()
    out[stale] = 0.0
    return out


def _carries(dag: PipelineDAG, name: str, producer: str) -> bool:
    """Whether stage ``name`` delivers the pixels of stage ``producer``.

    It does when it is ``producer`` or reaches it through Darkroom relays
    and other identity stages (``p(0, 0)``, or no expression) and through
    coalescing virtual readers, which stand for their physical stage.  A
    name seen twice ends the walk: a wire-decoded DAG may carry any
    ``virtual_of`` link.
    """
    seen: set[str] = set()
    while name != producer:
        if name in seen:
            return False
        seen.add(name)
        stage = dag.stage(name)
        expr = stage.expression
        if stage.virtual_of is not None:
            name = stage.virtual_of
        elif expr is None and dag.in_edges(name):
            name = dag.in_edges(name)[0].producer
        elif isinstance(expr, ast.StageRef) and (expr.dx, expr.dy, expr.dt) == (0, 0, 0):
            name = expr.stage
        else:
            return False
    return True


def _routed_edge(dag: PipelineDAG, consumer: str, producer: str):
    """The in-edge of ``consumer`` that carries the pixels it reads of ``producer``.

    Direct edges win; otherwise rewrites (Darkroom relays, coalescing virtual
    stages) leave the expression naming ``producer`` while the data routes
    through intermediates, so each in-edge's chain is walked back until it
    reaches ``producer``.  ``None`` when no in-edge carries it.
    """
    edges = dag.in_edges(consumer)
    for edge in edges:
        if edge.producer == producer:
            return edge
    for edge in edges:
        if _carries(dag, edge.producer, producer):
            return edge
    return None


class _Frames:
    """Frames streaming through the design, and the reads they serve.

    ``history`` holds every stage's frames so far and ``index`` is the frame
    the stage walker is computing.  Each frame is edge-padded once as it is
    stored, by the union of the offsets of every read it serves, so
    :meth:`plane` serves whole-frame reads as views of padded frames.
    """

    def __init__(self, design: ElaboratedDesign, schedule, shape: tuple[int, int], stages):
        self.design = design
        self.schedule = schedule
        self.dag: PipelineDAG = schedule.dag
        self.shape = shape
        self.index = 0
        self.history: dict[str, list[ast._EdgePadded]] = {
            name: [] for name in self.dag.stage_names()
        }
        self.routes: dict[tuple[str, str], object] = {}
        self.windows: dict[str, StencilWindow] = {}
        for consumer, expression in stages:
            for stage, window in ast.stencil_windows(expression).items():
                # A current-frame read comes out of the routed producer's
                # frame, a past-frame read out of the named stage's own.
                spatial = StencilWindow(
                    window.min_dx, window.max_dx, window.min_dy, window.max_dy
                )
                edge = self.route(consumer, stage)
                for source in {stage, stage if edge is None else edge.producer}:
                    known = self.windows.get(source, spatial)
                    self.windows[source] = known.union(spatial)

    def route(self, consumer: str, stage: str):
        """:func:`_routed_edge` of ``consumer``'s reads of ``stage``, found once."""
        key = (consumer, stage)
        if key not in self.routes:
            self.routes[key] = _routed_edge(self.dag, consumer, stage)
        return self.routes[key]

    def store(self, name: str, image: np.ndarray) -> None:
        """Keep stage ``name``'s image of the current frame, padded once."""
        window = self.windows.get(name) or StencilWindow.point()
        self.history[name].append(ast._EdgePadded(image, window))

    def past(self, consumer: str, ref: ast.StageRef) -> ast._EdgePadded | None:
        """The frame of ``ref.stage`` that the read ``ref`` (``dt != 0``) sees.

        Frame ``index + dt`` clamps at frame 0, as in the replay.  An earlier
        frame comes out of a frame buffer deep enough to hold it: the one on
        the routed in-edge's producer (a Darkroom relay can hold a deeper
        history than the stage it relays), else the named producer's own.
        ``None`` when there is none: the two-state ``X`` that reads as 0.
        """
        if ref.dt > 0:
            raise SimulationError(
                f"Stage {consumer!r} reads {ref.stage!r} at future frame "
                f"offset dt={ref.dt}; the hardware cannot realize it"
            )
        wanted = max(0, self.index + ref.dt)
        if wanted != self.index:
            edge = self.route(consumer, ref.stage)
            buffers = self.schedule.frame_buffers
            routed = ref.stage if edge is None else edge.producer
            buffer = buffers.get(routed) or buffers.get(ref.stage)
            if (
                buffer is None
                or buffer.depth < self.index - wanted
                or (buffer.image_height, buffer.image_width) != self.shape
            ):
                return None
        return self.history[ref.stage][wanted]

    def line_buffer(self, consumer: str, edge) -> tuple[int, int, bool]:
        """``(delta, lines, fifo)`` of ``consumer``'s reads over ``edge``.

        The consumer's start-cycle lead over the producer, the producer's
        line-buffer slots, and whether those are SODA FIFO chains.
        """
        config = self.schedule.line_buffers.get(edge.producer)
        delta = self.design.start_cycles[consumer] - self.design.start_cycles[edge.producer]
        # No elaborated buffer instance: the value arrives over a plain wire,
        # but the read must still be causal — one slot per row.
        lines = self.design.buffer_lines.get(edge.producer, self.shape[0])
        return delta, lines, config is not None and config.style == "fifo"

    def plane(self, consumer: str, ref: ast.StageRef) -> np.ndarray:
        """``consumer``'s read ``ref`` over the whole frame."""
        if ref.dt != 0:
            past = self.past(consumer, ref)
            if past is None:
                return np.zeros(self.shape, dtype=np.float64)
            return past.tap(ref.dx, ref.dy)
        edge = self.route(consumer, ref.stage)
        if edge is None:
            # Not routed through storage this model elaborates (e.g. a
            # coalesced group's internal wire): the value arrives
            # combinationally, identical to the functional semantics.
            return self.history[ref.stage][self.index].tap(ref.dx, ref.dy)
        delta, lines, fifo = self.line_buffer(consumer, edge)
        stale = _stale_rows(*self.shape, delta, lines, edge.window.min_dy, ref.dy, fifo)
        view = self.history[edge.producer][self.index].tap(ref.dx, ref.dy)
        return _line_buffer_tap(view, stale)


def _stream(design: ElaboratedDesign, schedule, inputs, evaluate_stage) -> RTLSimResult:
    """The frame loop of :func:`simulate_design`.

    Checks the input stacks, then runs the replay's stage walker once per
    frame, ``evaluate_stage(frames, name, expression)`` computing one
    stage's whole frame, and keeps every frame as history for the frame
    buffers.
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
    frame_count, height, width = shapes.pop()
    if width != design.image_width:
        raise SimulationError(
            f"Design rasterizes width {design.image_width}, inputs are {width} wide"
        )

    with trace_span("rtl_sim", frames=frame_count):
        stages = list(_walk_stages(dag))
        frames = _Frames(design, schedule, (height, width), stages)
        for index in range(frame_count):
            frames.index = index
            for stage in dag.input_stages():
                frames.store(stage.name, stacks[stage.name][index])
            for name, expression in stages:
                frames.store(name, evaluate_stage(frames, name, expression))
        outputs = {
            name: np.stack([frame.image for frame in frames.history[name]])
            for name in design.output_stages
        }
        achieved = measure_performance(design, height)["cycles_per_frame"]
        span_attr(cycles_per_frame=achieved)

    return RTLSimResult(
        outputs=outputs,
        digest=output_digest(outputs),
        frames=frame_count,
        cycles_per_frame=achieved,
        initiation_interval=width * height,
        startup_cycles=achieved - width * height,
    )


def simulate_design(
    design: ElaboratedDesign, schedule, inputs: dict[str, np.ndarray]
) -> RTLSimResult:
    """Stream ``(frames, H, W)`` input stacks through the elaborated design.

    Frames stream back to back: the controller restarts per frame (line
    buffers reset; their state never carries across frames), while frame
    buffers retain their rotating history — the same contract the generated
    controller implements.  Each stage evaluates once per frame over the
    whole (H, W) plane, every producer read served through the elaborated
    line and frame buffers.  Returns the output stacks, their digest, and
    the measured per-frame cycle counts.
    """

    def stage_plane(frames: _Frames, name: str, expression: ast.Expr) -> np.ndarray:
        return ast._evaluate(expression, partial(frames.plane, name), frames.shape)

    return _stream(design, schedule, inputs, stage_plane)


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
