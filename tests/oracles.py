"""Slow reference implementations that the fast paths are tested against.

* :func:`replay_frames_loop` replays one frame at a time, the oracle of the
  whole-stack :func:`repro.sim.batch.replay_frames`;
* :func:`simulate_design_loop` evaluates every pixel on scalars, the oracle
  of the whole-frame :func:`repro.rtl.sim.simulate_design`;
* :func:`lint_verilog_regex` is the structural linter as it stood before
  its scans were made literal-first, the oracle of
  :func:`repro.rtl.lint.lint_verilog`;
* :func:`schedule_is_legal` and :func:`schedule_objective` check a schedule
  against the scheduler's difference system and score it by Eq. 1a, edge by
  edge, for the flow kernel's properties;
* :func:`big_m_milp` solves the scheduler's big-M model with
  ``scipy.optimize.milp`` (HiGHS), the flow kernel's exact oracle.

The first two share the evaluator and the stage walker with the paths they
check; only the dispatch differs (frames, pixels), and the pixel oracle works
out each read with its own scalar residency formula instead of a padded
slice.  The lint oracle shares only :class:`repro.rtl.lint.LintReport`: its
patterns open with ``\\b`` or ``^\\s*`` and are searched over the whole
source or module body, so the regex engine tries them at every character.
``pytest.ini`` puts this directory on ``sys.path``, so the suite and the
guards in ``benchmarks/`` import it as ``oracles``.
"""

from __future__ import annotations

import re
from functools import partial

import numpy as np

from repro.core.scheduler import _build_big_m
from repro.dsl import ast
from repro.rtl import sim as rtl_sim
from repro.rtl.lint import LintReport
from repro.sim.batch import BatchReplay, golden_frames, output_digest
from repro.sim.functional import FunctionalResult, run_functional


def replay_frames_loop(
    dag, width: int, height: int, *, frames: int = 2, seed: int = 0
) -> BatchReplay:
    """Per-frame replay: the semantics of ``replay_frames``, one frame at a time.

    Same inputs, same outputs, same digest; only the dispatch cost differs,
    and ``benchmarks/test_verify_throughput.py`` guards that speedup.

    For a temporal pipeline each iteration carries the sliding window of past
    input frames the deepest ``dt`` reference needs (clamp-at-frame-0 only
    ever applies inside the first ``depth`` frames, matching the vectorized
    semantics exactly), and keeps the window's last frame.
    """
    inputs = golden_frames(dag, width, height, frames=frames, seed=seed)
    per_frame: list[FunctionalResult] = []
    depth = dag.history_depth()
    for index in range(frames):
        if depth:
            lo = max(0, index - depth)
            window_inputs = {name: stack[lo : index + 1] for name, stack in inputs.items()}
            windowed = run_functional(dag, window_inputs, axes="tyx")
            per_frame.append(
                FunctionalResult(
                    dag=dag,
                    images={name: img[-1] for name, img in windowed.images.items()},
                )
            )
        else:
            frame_inputs = {name: stack[index] for name, stack in inputs.items()}
            per_frame.append(run_functional(dag, frame_inputs))
    stacked: dict[str, np.ndarray] = {}
    for name in per_frame[0].images:
        stacked[name] = np.stack([result.images[name] for result in per_frame])
    result = FunctionalResult(dag=dag, images=stacked)
    outputs = result.outputs()
    return BatchReplay(
        dag=dag,
        frames=frames,
        seed=seed,
        result=result,
        outputs=outputs,
        digest=output_digest(outputs),
    )


def simulate_design_loop(
    design, schedule, inputs: dict[str, np.ndarray]
) -> rtl_sim.RTLSimResult:
    """Per-pixel ``simulate_design``: every output pixel through scalar arithmetic.

    It runs the simulator's own frame loop; only the reads differ: single
    pixels worked out on scalars here, whole-frame views there.
    """

    def stage_pixels(frames, name: str, expression: ast.Expr) -> np.ndarray:
        out = np.empty(frames.shape, dtype=np.float64)
        for y, x in np.ndindex(*frames.shape):
            fetch = partial(_pixel, frames, name, y=y, x=x)
            out[y, x] = ast._evaluate(expression, fetch, ())
        return out

    return rtl_sim._stream(design, schedule, inputs, stage_pixels)


def _pixel(frames, consumer: str, ref: ast.StageRef, *, y: int, x: int) -> np.float64:
    """Pixel ``(y, x)`` of ``consumer``'s read ``ref``, worked out on scalars.

    The residency formula of ``repro.rtl.sim``'s module docstring, one pixel
    at a time: the requested row and column clamp at the border, and a row
    whose slot does not hold it at read time reads as 0.0.
    """
    height, width = frames.shape
    wanted = min(max(y + ref.dy, 0), height - 1)
    col = min(max(x + ref.dx, 0), width - 1)
    if ref.dt != 0:
        past = frames.past(consumer, ref)
        return np.float64(0.0) if past is None else past.image[wanted, col]
    edge = frames.route(consumer, ref.stage)
    if edge is None:
        return frames.history[ref.stage][frames.index].image[wanted, col]
    delta, lines, fifo = frames.line_buffer(consumer, edge)
    raster = min(max(y + edge.window.min_dy, 0), height - 1)
    if fifo:
        fresh = delta + (raster - wanted) * width >= 1
    else:
        avail = min(raster + (delta - 1) // width, height - 1)
        fresh = wanted + lines * ((avail - wanted) // lines) == wanted
    image = frames.history[edge.producer][frames.index].image
    return image[wanted, col] if fresh else np.float64(0.0)


# ---------------------------------------------------------------------------
# Structural lint, one regex search per check
# ---------------------------------------------------------------------------
_MODULE_RE = re.compile(r"^\s*module\s+([A-Za-z_][A-Za-z0-9_$]*)", re.MULTILINE)
_ENDMODULE_RE = re.compile(r"\bendmodule\b")
_INSTANCE_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_$]*)\s+(?:#\s*\([^;]*?\)\s*)?(u_[A-Za-z0-9_$]*)\s*\(",
    re.MULTILINE,
)
_PORT_DECL_RE = re.compile(
    r"\b(?:input|output|inout)\b\s+(?:(?:wire|reg)\s+)?(?:signed\s+)?(\[[^\]]*\])?\s*"
    r"([A-Za-z_][A-Za-z0-9_$]*(?:\s*,\s*(?!(?:input|output|inout|wire|reg)\b)"
    r"[A-Za-z_][A-Za-z0-9_$]*)*)"
)
_SIGNAL_DECL_RE = re.compile(
    r"\b(?:wire|reg)\b\s*(?:signed\s+)?(\[[^\]]*\])?\s*"
    r"([A-Za-z_][A-Za-z0-9_$]*(?:\s*,\s*(?!(?:input|output|inout|wire|reg)\b)"
    r"[A-Za-z_][A-Za-z0-9_$]*)*)"
)
_PORT_CONNECT_RE = re.compile(r"\.([A-Za-z_][A-Za-z0-9_$]*)\s*\(")
_PORT_CONNECT_EXPR_RE = re.compile(r"\.([A-Za-z_][A-Za-z0-9_$]*)\s*\(\s*([^()]*?)\s*\)")
_RANGE_RE = re.compile(r"\[\s*(\d+)\s*:\s*(\d+)\s*\]")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")


def _module_bodies(source: str, endmodules: list[int]) -> dict[str, str]:
    """Each module's text up to the first whole-word ``endmodule`` after its
    header (``endmodules``: the offsets of every one)."""
    bodies: dict[str, str] = {}
    for match in _MODULE_RE.finditer(source):
        name = match.group(1)
        end = next((at for at in endmodules if at >= match.end()), len(source))
        bodies[name] = source[match.start() : end]
    return bodies


def _range_width(range_text: str | None) -> int | None:
    """Bit width of a ``[msb:lsb]`` range; 1 when absent; None when symbolic."""
    if not range_text:
        return 1
    match = _RANGE_RE.fullmatch(range_text.strip())
    if match is None:
        return None
    return abs(int(match.group(1)) - int(match.group(2))) + 1


def _port_names(body: str) -> set[str]:
    names: set[str] = set()
    for match in _PORT_DECL_RE.finditer(body):
        names.update(name.strip() for name in match.group(2).split(","))
    return names


def _declared_widths(body: str) -> dict[str, int | None]:
    """Width of every wire/reg/port in a module body (None = not constant)."""
    widths: dict[str, int | None] = {}
    for regex in (_SIGNAL_DECL_RE, _PORT_DECL_RE):
        for match in regex.finditer(body):
            width = _range_width(match.group(1))
            for name in match.group(2).split(","):
                widths[name.strip()] = width
    return widths


def lint_verilog_regex(source: str) -> LintReport:
    """Run the structural checks and return a :class:`LintReport`."""
    report = LintReport()
    endmodules = [match.start() for match in _ENDMODULE_RE.finditer(source)]
    bodies = _module_bodies(source, endmodules)
    report.modules = list(bodies)

    seen: set[str] = set()
    for name in _MODULE_RE.findall(source):
        if name in seen:
            report.errors.append(f"Duplicate module definition: {name}")
        seen.add(name)

    module_count = len(_MODULE_RE.findall(source))
    endmodule_count = len(endmodules)
    if module_count != endmodule_count:
        report.errors.append(
            f"Unbalanced module/endmodule: {module_count} module(s), {endmodule_count} endmodule(s)"
        )

    begin_count = len(re.findall(r"\bbegin\b", source))
    end_count = len(re.findall(r"\bend\b(?!module|generate|function|case)", source))
    if begin_count != end_count:
        report.errors.append(f"Unbalanced begin/end: {begin_count} begin(s), {end_count} end(s)")

    port_map = {name: _port_names(body) for name, body in bodies.items()}
    width_map = {name: _declared_widths(body) for name, body in bodies.items()}

    for module_name, body in bodies.items():
        for match in _INSTANCE_RE.finditer(body):
            target, instance = match.group(1), match.group(2)
            if target in ("module",):
                continue
            report.instances.append((target, instance))
            if target not in bodies:
                report.errors.append(
                    f"Module {module_name!r} instantiates undefined module {target!r} as {instance}"
                )
                continue
            # Check the named connections of this instance against the target's ports.
            instance_text = _instance_text(body, match.start(2))
            for port in _PORT_CONNECT_RE.findall(instance_text):
                if port not in port_map[target]:
                    report.errors.append(
                        f"Instance {instance} connects unknown port .{port} of module {target}"
                    )
            # Width agreement where both ends have constant ranges and the
            # connection is a bare identifier (expressions are skipped).
            for port, expr in _PORT_CONNECT_EXPR_RE.findall(instance_text):
                if _IDENT_RE.fullmatch(expr) is None:
                    continue
                port_width = width_map[target].get(port)
                signal_width = width_map[module_name].get(expr)
                if port_width is None or signal_width is None:
                    continue
                if port_width != signal_width:
                    report.errors.append(
                        f"Instance {instance} connects {expr} ({signal_width} bits) "
                        f"to port .{port} of module {target} ({port_width} bits)"
                    )

    tops = [m for m in report.modules if m not in {t for t, _ in report.instances}]
    if not tops:
        report.errors.append("No top-level module (every module is instantiated)")
    elif len(tops) > 1:
        report.warnings.append(f"Multiple top-level candidates: {', '.join(tops)}")

    return report


def _instance_text(body: str, start: int) -> str:
    """The text of one instantiation, from its start to the closing ');'."""
    end = body.find(");", start)
    return body[start : end if end != -1 else len(body)]


def schedule_is_legal(cycles, mandatory, multis) -> bool:
    """Does ``cycles`` satisfy every mandatory edge and cover every disjunction?"""
    for (a, b), rhs in mandatory.items():
        if cycles[b] - cycles[a] < rhs:
            return False
    return all(
        any(cycles[c.trailing] - cycles[c.leading] >= c.min_gap for c in disjunction.candidates)
        for disjunction in multis
    )


def schedule_objective(dag, cycles) -> int:
    """The ILP objective (Eq. 1a): per-producer maximum consumer delay."""
    total = 0
    for producer in dag.stage_names():
        consumers = dag.consumers_of(producer)
        if consumers:
            total += max(cycles[c] - cycles[producer] for c in consumers)
    return total


def big_m_milp(dag, width: int, prologue, *, minimise=None, optimum=None):
    """``scipy.optimize.milp`` (HiGHS) on the scheduler's big-M arrays.

    It minimises the model's own objective (Eq. 1a), or, with ``minimise``,
    the summed start cycles of those stages.  With ``optimum`` the Eq. 1a
    objective is held at or below it.  Returns SciPy's result: ``status`` 0
    optimal or 2 infeasible, ``fun``, and ``x``, whose first columns are the
    start cycles in ``dag.stage_names()`` order.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    problem = _build_big_m(dag, width, prologue)
    constraints = [LinearConstraint(problem.rows, problem.row_lower, problem.row_upper)]
    if optimum is not None:
        constraints.append(LinearConstraint(problem.c, -np.inf, optimum))
    c = problem.c
    if minimise is not None:
        stages = dag.stage_names()
        c = np.zeros_like(problem.c)
        c[[stages.index(stage) for stage in minimise]] = 1.0
    return milp(
        c,
        constraints=constraints,
        bounds=Bounds(problem.lower, problem.upper),
        integrality=problem.integrality,
    )
