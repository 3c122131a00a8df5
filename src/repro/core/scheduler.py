"""The ILP scheduler (paper Sec. 5.2-5.5).

Given a pipeline DAG, the image width and an on-chip memory specification,
the scheduler assigns a start cycle to every stage such that

* data dependencies hold (R1, Eq. 1b),
* no line buffer block ever receives more accesses than it has ports
  (R3, Eq. 1c realised through pairwise separations, Eq. 12),
* the total line-buffer size (Eq. 1a / Eq. 2) is minimal.

The problem is an Integer Linear Program.  Once constraint pruning (Sec. 5.4)
has removed the dominated disjuncts, the min-cost-flow kernel solves it
exactly whenever it can:

* fixing one candidate of every true disjunction leaves a plain difference
  system (the paper's sub-problem), whose LP is the dual of a min-cost flow;
  :mod:`repro.core.flow` returns each sub-problem's earliest optimum, and
  with at most :data:`MAX_FLOW_BRANCHES` of them the scheduler returns the
  least optimal schedule of the whole system (``backend="flow"`` in the
  ``ilp`` span).  A system with no true disjunction is the one-branch case;
* a system without a least optimum (mirror-image optima) or with more
  branches goes to the big-M model, built as plain arrays and solved by
  HiGHS (:func:`repro.ilp.highs.solve_highs`).

The port count of R3 is the memory spec's (``memory_spec.ports``):
:class:`SchedulerOptions` has no override, so a schedule never assumes more
ports than the memory it was compiled for.  :func:`schedule_pipeline` is
the one entry point; it checks the graph and the image size on every call.
Every solve starts from the target alone, so a target's schedule does not
depend on what was solved before it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import access
from repro.core.constraints import (
    DependencyConstraint,
    Disjunction,
    coalescing_safety_constraints,
    contention_disjunctions,
    data_dependency_constraints,
    schedule_horizon,
)
from repro.core.coalescing import coalescing_factors
from repro.core.flow import branch_arcs, difference_system, earliest_optimum
from repro.core.pruning import count_subproblems, prune_disjunctions
from repro.core.schedule import PipelineSchedule
from repro.errors import SchedulingError
from repro.ilp.highs import MILP, solve_highs
from repro.ir.dag import PipelineDAG
from repro.ir.traversal import partial_order
from repro.memory.allocator import (
    allocate_line_buffer,
    allocate_register_buffer,
    dff_realization_threshold,
)
from repro.memory.spec import MemorySpec
from repro.trace import span_attr, trace_span


#: Most disjunct combinations :func:`_solve_flow` branches over; a system
#: with more goes to the big-M model.  The bound is the measured crossover
#: on the 15-, 18- and 21-stage synthetic pipelines (16, 32 and 64 branches,
#: about 1-1.6 ms each): at 16 the kernel beat HiGHS 1.7-2.1x at widths
#: 32-64 and 3-4.3x at 480-1920; at 32 it lost at widths 32-64; at 64 it
#: lost 2-3.5x everywhere.  Every catalog design has at most 2.
MAX_FLOW_BRANCHES = 16

#: Wall-clock cap, in seconds, on one HiGHS solve of the big-M model.  Far
#: above every measured scheduling solve that reaches it: 30-95 ms for the
#: 16 Fig. 10 variants of canny-m and harris-m with mirror-image optima
#: (every catalog design itself solves on the flow kernel) and about 120 ms
#: for the 60-stage synthetic pipeline.  Some systems with many true
#: disjunctions keep HiGHS from closing its gap for minutes; at the cap the
#: scheduler raises a ``SchedulingError`` that gives the gap left.
SOLVE_TIME_LIMIT_S = 60.0


@dataclass
class SchedulerOptions:
    """Knobs of the scheduling ILP.

    The port count is not among them: it is the memory spec's, the
    programmer's description of the on-chip memory (Sec. 4).

    Attributes
    ----------
    coalescing:
        Enable the line-coalescing optimization (Sec. 6).
    coalescing_policy:
        ``"auto"`` (default) coalesces only buffers where it cannot hurt —
        single-consumer buffers, where no extra consumer separation is needed;
        ``"all"`` coalesces every buffer the block size allows (the Fig. 10
        DSE uses this together with ``per_stage_coalescing``).
    pruning:
        Enable constraint pruning (Sec. 5.4).
    per_stage_coalescing:
        Per-producer coalescing choices that override ``coalescing_policy``.
    """

    coalescing: bool = False
    coalescing_policy: str = "auto"
    pruning: bool = True
    per_stage_coalescing: dict[str, bool] = field(default_factory=dict)


@dataclass
class _Prologue:
    """Everything the solve needs, computed once per (target, options)."""

    factors: dict[str, int]
    dependencies: list[DependencyConstraint]
    disjunctions: list[Disjunction]
    raw_candidates: int
    pruned_candidates: int
    horizon: int


def _constraint_prologue(
    dag: PipelineDAG,
    image_width: int,
    memory_spec: MemorySpec,
    options: SchedulerOptions,
) -> _Prologue:
    ports = memory_spec.ports
    factors = _effective_factors(dag, image_width, memory_spec, options)
    order = partial_order(dag)

    dependencies = data_dependency_constraints(dag, image_width)
    dependencies.extend(coalescing_safety_constraints(dag, image_width, factors))
    disjunctions = contention_disjunctions(
        dag, image_width, ports, coalesce_factors=factors, order=order
    )
    raw_candidate_count = sum(len(d.candidates) for d in disjunctions)
    if options.pruning:
        disjunctions = prune_disjunctions(disjunctions, dag, order)
    pruned_candidate_count = sum(len(d.candidates) for d in disjunctions)

    for disjunction in disjunctions:
        if disjunction.is_empty:
            raise SchedulingError(
                f"Line buffer of {disjunction.buffer!r} cannot satisfy the port limit "
                f"({ports} ports) for accessors {disjunction.combination}"
            )

    return _Prologue(
        factors=factors,
        dependencies=dependencies,
        disjunctions=disjunctions,
        raw_candidates=raw_candidate_count,
        pruned_candidates=pruned_candidate_count,
        horizon=schedule_horizon(dag, image_width),
    )


def schedule_pipeline(
    dag: PipelineDAG,
    image_width: int,
    image_height: int,
    memory_spec: MemorySpec,
    options: SchedulerOptions | None = None,
) -> PipelineSchedule:
    """Solve the scheduling ILP and return the resulting accelerator design."""
    if image_width < 2 or image_height < 1:
        raise SchedulingError(f"Unsupported image size {image_width}x{image_height}")
    dag.validated()
    options = options or SchedulerOptions()
    started = time.perf_counter()
    with trace_span("solve", coalescing=bool(options.coalescing)):
        prologue = _constraint_prologue(dag, image_width, memory_spec, options)
        # One span per solve: a deferred flow attempt is billed to the big-M
        # solve that follows it, which reports its own backend.
        with trace_span("ilp", backend="flow"):
            solved = _solve_flow(dag, prologue)
            if solved is None:  # no least optimum, or too many branches
                solved = _solve_big_m(dag, image_width, prologue)
        start_cycles, objective, solver_stats = solved
        span_attr(
            objective=objective,
            solves=int(solver_stats["solves"]),
            disjunctions=len(prologue.disjunctions),
        )

    solver_stats.update(
        {
            "objective": objective,
            "compile_seconds": time.perf_counter() - started,
            "ports": memory_spec.ports,
            "raw_contention_candidates": prologue.raw_candidates,
            "pruned_contention_candidates": prologue.pruned_candidates,
            "num_disjunctions": len(prologue.disjunctions),
            "subproblems": count_subproblems(prologue.disjunctions),
            "pruning": options.pruning,
            "strategy": "flow" if solver_stats["backend"] == "flow" else "bigm",
        }
    )

    line_buffers = realize_line_buffers(
        dag, image_width, memory_spec, start_cycles, prologue.factors, memory_spec.ports
    )
    if dag.is_temporal():
        # Frame-buffer SRAM is start-cycle independent, so it never enters the
        # ILP objective; record it in the stats so reports can show the split.
        depths = dag.frame_depths()
        solver_stats["frame_buffer_pixels"] = sum(
            access.frame_buffer_pixels(depth, image_width, image_height)
            for depth in depths.values()
        )
        solver_stats["frame_buffers"] = len(depths)
    return PipelineSchedule(
        dag=dag,
        image_width=image_width,
        image_height=image_height,
        memory_spec=memory_spec,
        start_cycles=start_cycles,
        line_buffers=line_buffers,
        generator="imagen+lc" if options.coalescing else "imagen",
        coalesce_factors=prologue.factors,
        solver_stats=solver_stats,
    )


# ---------------------------------------------------------------------------
# ILP construction helpers
# ---------------------------------------------------------------------------
def _effective_factors(
    dag: PipelineDAG,
    image_width: int,
    memory_spec: MemorySpec,
    options: SchedulerOptions,
) -> dict[str, int]:
    if not options.coalescing:
        return {name: 1 for name in dag.stage_names()}
    factors = coalescing_factors(dag, image_width, memory_spec)
    # Producers with temporal consumers are never coalesced (any policy): their
    # history lives in a frame buffer behind the line-buffer fabric, and the
    # coalescing rewrite (virtual readers via from_extent) is frame-oblivious —
    # it would silently drop the dt extent from the split windows.
    for edge in dag.edges():
        if edge.is_temporal:
            factors[edge.producer] = 1
    if options.coalescing_policy == "auto":
        # Coalescing only pays off where packing lines actually removes blocks:
        # multi-consumer buffers need extra consumer separation (which inflates
        # downstream buffers), and buffers shorter than three lines either gain
        # nothing or lose their cheap DFF realisation.  Leave those at factor 1
        # unless explicitly requested (per_stage_coalescing / the DSE sweep).
        for producer in dag.stage_names():
            if options.per_stage_coalescing.get(producer, False):
                continue
            edges = dag.out_edges(producer)
            if not edges:
                continue
            tallest = max(edge.window.height for edge in edges)
            if len(edges) > 1 or tallest < 3:
                factors[producer] = 1
    if options.per_stage_coalescing:
        for stage, enabled in options.per_stage_coalescing.items():
            if not enabled and stage in factors:
                factors[stage] = 1
    return factors


def _build_big_m(dag: PipelineDAG, image_width: int, prologue: _Prologue) -> MILP:
    """Build the big-M model (Eq. 1a/1b plus indicator-relaxed Eq. 12) as the
    arrays ``scipy.optimize.milp`` reads, every column integer.

    Columns: ``S`` per stage in ``dag.stage_names()`` order, then ``D`` per
    producer (its largest consumer delay), then one indicator ``y`` per
    candidate of each non-singleton disjunction.  Rows: input anchors, data
    dependencies, max-delay rows, then per disjunction its separation row or
    its big-M rows followed by its cover row.
    """
    horizon = prologue.horizon
    start = {stage: index for index, stage in enumerate(dag.stage_names())}
    producers = [stage for stage in start if dag.consumers_of(stage)]
    delay = {producer: len(start) + index for index, producer in enumerate(producers)}
    columns = len(start) + len(delay)
    terms: list[tuple[int, int, float]] = []  # (row, column, coefficient)
    lower: list[float] = []
    upper: list[float] = []

    def add_row(coefficients, low, high=np.inf):
        terms.extend((len(lower), column, coeff) for column, coeff in coefficients)
        lower.append(low)
        upper.append(high)

    def separation(candidate):  # S_trailing - S_leading
        return [(start[candidate.trailing], 1.0), (start[candidate.leading], -1.0)]

    for stage in dag.input_stages():
        add_row([(start[stage.name], 1.0)], 0.0, 0.0)
    for dep in prologue.dependencies:
        add_row([(start[dep.consumer], 1.0), (start[dep.producer], -1.0)], dep.min_delay)
    # Objective: sum over producers of the maximum consumer delay (Eq. 1a with
    # the ceiling dropped, which the paper shows preserves optimality).
    for producer in producers:
        for consumer in dag.consumers_of(producer):
            add_row(
                [(delay[producer], 1.0), (start[consumer], -1.0), (start[producer], 1.0)], 0.0
            )

    big_m = 2 * horizon + image_width
    for disjunction in prologue.disjunctions:
        if disjunction.is_singleton:
            candidate = disjunction.candidates[0]
            add_row(separation(candidate), candidate.min_gap)
            continue
        indicators = range(columns, columns + len(disjunction.candidates))
        columns += len(indicators)
        for indicator, candidate in zip(indicators, disjunction.candidates):
            # S_t - S_l >= gap - M*(1 - y): enforced when the indicator y is 1.
            add_row(
                separation(candidate) + [(indicator, -float(big_m))],
                candidate.min_gap - big_m,
            )
        add_row([(indicator, 1.0) for indicator in indicators], 1.0)

    rows = np.zeros((len(lower), columns))
    at_row, at_column, coefficients = zip(*terms)
    np.add.at(rows, (list(at_row), list(at_column)), coefficients)
    c = np.zeros(columns)
    c[len(start) : len(start) + len(delay)] = 1.0
    bound = np.full(columns, float(horizon))
    bound[len(start) + len(delay) :] = 1.0
    return MILP(
        c=c,
        rows=rows,
        row_lower=np.array(lower, dtype=np.float64),
        row_upper=np.array(upper, dtype=np.float64),
        lower=np.zeros(columns),
        upper=bound,
        integrality=np.ones(columns, dtype=np.int64),
    )


def _solve_big_m(dag: PipelineDAG, image_width: int, prologue: _Prologue):
    problem = _build_big_m(dag, image_width, prologue)
    status, x, message, nodes = solve_highs(problem, SOLVE_TIME_LIMIT_S)
    span_attr(backend="highs", status=status, bnb_nodes=nodes)
    if x is None:
        raise SchedulingError(
            f"Scheduling ILP for {dag.name!r} is {status} (backend highs, {message})"
        )
    start_cycles = {stage: int(x[index]) for index, stage in enumerate(dag.stage_names())}
    stats = {
        "backend": "highs",
        "ilp_variables": len(problem.c),
        "ilp_constraints": len(problem.rows),
        "solves": 1,
    }
    return start_cycles, float(problem.c @ x), stats


def _solve_flow(dag: PipelineDAG, prologue: _Prologue):
    """Solve exactly by min-cost flow, one branch per disjunct combination.

    The nodes are the start cycles ``S_s`` plus one ``E_p = S_p + D_p`` per
    producer, so the objective ``sum_p (E_p - S_p)`` is linear over
    difference arcs.  Fixing one candidate of every true disjunction leaves a
    plain difference system (a paper sub-problem, Sec. 5.4), which
    :func:`repro.core.flow.earliest_optimum` solves exactly.  The system's
    optimal set is the union of the optimal branches' faces, and each face
    lies above its branch's earliest optimum, so the least optimal schedule
    exists exactly when one optimal branch's earliest optimum is
    componentwise <= every other's; that one is returned.

    Returns ``None`` when there is no least optimum (mirror-image optima) or
    more than :data:`MAX_FLOW_BRANCHES` branches: the big-M model decides.
    """
    mandatory, multis = difference_system(prologue.dependencies, prologue.disjunctions)
    branches = count_subproblems(multis)
    span_attr(branches=branches)
    if branches > MAX_FLOW_BRANCHES:
        return None
    stages = dag.stage_names()
    nodes: list = list(stages)
    costs: dict = {}
    for producer in stages:
        consumers = dag.consumers_of(producer)
        if not consumers:
            continue
        end = ("E", producer)
        nodes.append(end)
        costs[producer], costs[end] = -1, 1
        for consumer in consumers:
            mandatory[(consumer, end)] = 0
    anchored = [stage.name for stage in dag.input_stages()]
    best, optimal = None, []
    for arcs in branch_arcs(mandatory, multis):
        solution = earliest_optimum(
            nodes, arcs, costs, anchored=anchored, horizon=prologue.horizon
        )
        if solution is None:
            continue
        values, objective = solution
        if best is None or objective < best:
            best, optimal = objective, []
        if objective == best:
            optimal.append({stage: values[stage] for stage in stages})
    if best is None:
        span_attr(status="infeasible")
        raise SchedulingError(
            f"Scheduling ILP for {dag.name!r} is infeasible (backend flow, positive cycle)"
        )
    least = {stage: min(values[stage] for values in optimal) for stage in stages}
    if least not in optimal:
        return None
    span_attr(status="optimal")
    stats = {
        "backend": "flow",
        "ilp_variables": len(nodes),
        "ilp_constraints": len(mandatory) + len(multis) + len(anchored),
        "solves": 1,
    }
    return least, float(best), stats


# ---------------------------------------------------------------------------
# Physical realisation
# ---------------------------------------------------------------------------
def realize_line_buffers(
    dag: PipelineDAG,
    image_width: int,
    memory_spec: MemorySpec,
    start_cycles: dict[str, int],
    factors: dict[str, int],
    ports: int,
):
    """Derive the physical line-buffer configurations from a solved schedule.

    This is a pure function of its arguments, which makes a schedule fully
    reconstructible from ``(dag, width, spec, start_cycles, factors, ports)``
    alone — the property the on-disk compile cache
    (:mod:`repro.service.cache`) relies on to round-trip designs.
    """
    line_buffers = {}
    with trace_span("allocate"):
        for producer in dag.stage_names():
            edges = dag.out_edges(producer)
            if not edges:
                continue
            delays = [
                (start_cycles[e.consumer] - start_cycles[producer], e.window.height) for e in edges
            ]
            if min(delay for delay, _ in delays) <= 0:
                raise SchedulingError(
                    f"Non-positive producer->consumer delay for {producer!r}; schedule is invalid"
                )
            reader_heights = {edge.consumer: edge.window.height for edge in edges}
            max_delay = max(delay for delay, _ in delays)
            if max_delay <= dff_realization_threshold(image_width):
                line_buffers[producer] = allocate_register_buffer(
                    producer, image_width, max_delay, memory_spec, reader_heights=reader_heights
                )
                continue
            factor = max(1, factors.get(producer, 1))
            lines = access.minimal_slot_count(
                image_width, ports, delays, coalesce_factor=factor
            )
            factor = min(factor, lines)
            line_buffers[producer] = allocate_line_buffer(
                producer,
                image_width,
                lines,
                memory_spec,
                coalesce_factor=factor,
                reader_heights=reader_heights,
            )
        span_attr(buffers=len(line_buffers))
    return line_buffers
