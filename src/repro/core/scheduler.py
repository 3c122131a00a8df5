"""The ILP scheduler (paper Sec. 5.2-5.5).

Given a pipeline DAG, the image width and an on-chip memory specification,
the scheduler assigns a start cycle to every stage such that

* data dependencies hold (R1, Eq. 1b),
* no line buffer block ever receives more accesses than it has ports
  (R3, Eq. 1c realised through pairwise separations, Eq. 12),
* the total line-buffer size (Eq. 1a / Eq. 2) is minimal.

The problem is an Integer Linear Program.  Disjunctive contention constraints
(Sec. 5.4) are handled either with big-M indicator variables (default) or by
enumerating sub-problems; constraint pruning removes dominated disjuncts in
both cases.

Two solve-acceleration paths sit in front of the ILP, both optimality
preserving:

* **Warm starts** — :func:`schedule_pipeline` accepts a
  :class:`~repro.core.warmstart.WarmHint` (a solved neighbor design).  The
  neighbor's binding constraint edges are re-imposed at the target
  width/options (:mod:`repro.core.warmstart`); when the transferred candidate
  is legal and its objective matches the longest-walk lower bound, the ILP is
  skipped entirely (the ``ilp`` span reports ``backend="warmstart"``).
  Otherwise a legal candidate still seeds the branch-and-bound incumbent.
* **Compound solves** — :func:`schedule_compound` folds several option
  variants of one pipeline (the Fig. 10 sweep) into a single block-diagonal
  model solved in one call (:mod:`repro.ilp.compound`), with the warm
  certificate peeling off variants before any model is built.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.core import access
from repro.core.constraints import (
    DependencyConstraint,
    Disjunction,
    PairSeparation,
    coalescing_safety_constraints,
    contention_disjunctions,
    data_dependency_constraints,
    schedule_horizon,
)
from repro.core.coalescing import coalescing_factors
from repro.core.pruning import count_subproblems, prune_disjunctions
from repro.core.schedule import PipelineSchedule
from repro.core.warmstart import (
    WarmHint,
    difference_system,
    disjunctive_lower_bound,
    schedule_objective,
    try_warm_transfer,
)
from repro.errors import SchedulingError
from repro.ilp.compound import merge_models, solve_compound
from repro.ilp.expr import linear_sum
from repro.ilp.model import Model, SolveStatus, WarmStart
from repro.ilp.solver import solve
from repro.ir.dag import PipelineDAG
from repro.ir.traversal import partial_order
from repro.memory.allocator import (
    allocate_line_buffer,
    allocate_register_buffer,
    dff_realization_threshold,
)
from repro.memory.spec import MemorySpec
from repro.trace import span_attr, trace_span


@dataclass
class SchedulerOptions:
    """Knobs of the scheduling ILP.

    Attributes
    ----------
    ports:
        Override the port count of the memory spec (``None`` = use the spec).
    coalescing:
        Enable the line-coalescing optimization (Sec. 6).
    coalescing_policy:
        ``"auto"`` (default) coalesces only buffers where it cannot hurt —
        single-consumer buffers, where no extra consumer separation is needed;
        ``"all"`` coalesces every buffer the block size allows (the Fig. 10
        DSE uses this together with ``per_stage_coalescing``).
    pruning:
        Enable constraint pruning (Sec. 5.4).
    disjunction_strategy:
        ``"bigm"`` (indicator variables, one solve) or ``"enumerate"``
        (Cartesian product of sub-problems, the paper's formulation).
    backend:
        ILP backend passed to :func:`repro.ilp.solver.solve` (``"auto"``,
        ``"python"`` or ``"highs"``).
    max_subproblems:
        Safety valve for the enumeration strategy.
    """

    ports: int | None = None
    coalescing: bool = False
    coalescing_policy: str = "auto"
    pruning: bool = True
    disjunction_strategy: str = "bigm"
    backend: str = "auto"
    max_subproblems: int = 4096
    per_stage_coalescing: dict[str, bool] = field(default_factory=dict)


@dataclass
class _Prologue:
    """Everything the solve needs, computed once per (target, options)."""

    ports: int
    factors: dict[str, int]
    order: dict
    dependencies: list[DependencyConstraint]
    disjunctions: list[Disjunction]
    raw_candidates: int
    pruned_candidates: int
    horizon: int


def _validate_request(dag: PipelineDAG, image_width: int, image_height: int) -> None:
    if image_width < 2 or image_height < 1:
        raise SchedulingError(f"Unsupported image size {image_width}x{image_height}")
    dag.validated()


def _constraint_prologue(
    dag: PipelineDAG,
    image_width: int,
    memory_spec: MemorySpec,
    options: SchedulerOptions,
) -> _Prologue:
    ports = options.ports if options.ports is not None else memory_spec.ports
    if ports < 1:
        raise SchedulingError("Memory ports must be >= 1")

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
        ports=ports,
        factors=factors,
        order=order,
        dependencies=dependencies,
        disjunctions=disjunctions,
        raw_candidates=raw_candidate_count,
        pruned_candidates=pruned_candidate_count,
        horizon=schedule_horizon(dag, image_width),
    )


def _attempt_warm_start(
    dag: PipelineDAG,
    image_width: int,
    prologue: _Prologue,
    options: SchedulerOptions,
    warm_hint: WarmHint,
) -> tuple[dict[str, int] | None, int | None, str]:
    """Transfer + certify a warm hint: (cycles, certified objective, detail).

    The fast path is gated to the big-M strategy: enumeration breaks
    objective ties by sub-problem order, which the certificate cannot see.
    """
    if options.disjunction_strategy != "bigm":
        return None, None, "strategy"
    mandatory, multis = difference_system(prologue.dependencies, prologue.disjunctions)
    cycles, detail = try_warm_transfer(
        dag,
        warm_hint,
        image_width=image_width,
        mandatory=mandatory,
        multis=multis,
        pruning=options.pruning,
        order=prologue.order,
    )
    if cycles is None:
        return None, None, detail
    objective = schedule_objective(dag, cycles)
    if objective == disjunctive_lower_bound(dag, mandatory, multis):
        return cycles, objective, "certificate"
    return cycles, None, "seed"


def _certificate_stats() -> dict:
    # Mirror the _solve_big_m stats shape so downstream consumers (reports,
    # serialization) see a uniform schema; zero solves is the whole point.
    return {
        "backend": "warmstart",
        "ilp_variables": 0,
        "ilp_constraints": 0,
        "lp_iterations": 0,
        "solves": 0,
    }


def schedule_pipeline(
    dag: PipelineDAG,
    image_width: int,
    image_height: int,
    memory_spec: MemorySpec,
    options: SchedulerOptions | None = None,
    *,
    warm_hint: WarmHint | None = None,
) -> PipelineSchedule:
    """Solve the scheduling ILP and return the resulting accelerator design.

    ``warm_hint`` offers a solved neighbor design as a seed; it can only ever
    accelerate the solve — the returned schedule is a proven optimum either
    way, and a hint that fails transfer or certification degrades to a cold
    solve (or an incumbent-seeded branch-and-bound).
    """
    options = options or SchedulerOptions()
    _validate_request(dag, image_width, image_height)

    started = time.perf_counter()
    with trace_span(
        "solve",
        strategy=options.disjunction_strategy,
        coalescing=bool(options.coalescing),
    ):
        prologue = _constraint_prologue(dag, image_width, memory_spec, options)

        warm_cycles: dict[str, int] | None = None
        certified: int | None = None
        warm_detail = "none"
        if warm_hint is not None:
            warm_cycles, certified, warm_detail = _attempt_warm_start(
                dag, image_width, prologue, options, warm_hint
            )

        if certified is not None:
            assert warm_cycles is not None
            # Provably optimal without a model: record a zero-cost "ilp" span
            # so warm wins are measurable alongside real backend calls.
            with trace_span("ilp", backend="warmstart"):
                span_attr(status="optimal", lp_iterations=0, bnb_pruned=0, warm_start="certificate")
            start_cycles, objective = warm_cycles, float(certified)
            solver_stats = _certificate_stats()
        elif options.disjunction_strategy == "enumerate":
            start_cycles, objective, solver_stats = _solve_by_enumeration(
                dag, image_width, prologue.dependencies, prologue.disjunctions,
                prologue.horizon, options,
            )
        elif options.disjunction_strategy == "bigm":
            start_cycles, objective, solver_stats = _solve_big_m(
                dag, image_width, prologue.dependencies, prologue.disjunctions,
                prologue.horizon, options, warm_cycles=warm_cycles,
            )
        else:
            raise SchedulingError(f"Unknown disjunction strategy {options.disjunction_strategy!r}")

        if warm_hint is not None:
            disposition = solver_stats.pop("warm_seed", "none")
            if certified is not None:
                solver_stats["warm_start"] = "certificate"
            elif warm_cycles is not None:
                # The hint transferred but did not certify.  The Python
                # backend reports what it did with the seed
                # (seeded/incumbent/rejected); HiGHS ignores seeds, in which
                # case the transfer outcome itself ("seed") is recorded.
                solver_stats["warm_start"] = disposition if disposition != "none" else "seed"
            else:
                solver_stats["warm_start"] = warm_detail
            span_attr(warm=solver_stats["warm_start"])
        span_attr(
            objective=float(objective),
            solves=int(solver_stats.get("solves", 1)),
            disjunctions=len(prologue.disjunctions),
        )

    elapsed = time.perf_counter() - started
    return _finalize_schedule(
        dag, image_width, image_height, memory_spec, options, prologue,
        start_cycles, objective, solver_stats, elapsed,
    )


def schedule_compound(
    dag: PipelineDAG,
    image_width: int,
    image_height: int,
    memory_spec: MemorySpec,
    variant_options: list[SchedulerOptions],
    *,
    base_hint: WarmHint | None = None,
) -> list[PipelineSchedule]:
    """Schedule several option-variants of one pipeline as one compound solve.

    This is the DSE sweep path (Fig. 10): the ``2^k`` per-stage coalescing
    variants share a DAG and a resolution, so their ILPs are merged into one
    block-diagonal compound model (:mod:`repro.ilp.compound`) and solved in a
    single call.  Before any model is built, each variant is offered
    ``base_hint`` (typically the sweep's all-DP baseline schedule); variants
    whose transferred candidate certifies optimal skip the model entirely.
    The remaining blocks are solved cold — never incumbent-seeded — so every
    variant's schedule is byte-identical to what a standalone
    :func:`schedule_pipeline` cold solve returns.

    Returns one :class:`PipelineSchedule` per entry of ``variant_options``,
    in order.
    """
    if not variant_options:
        return []
    _validate_request(dag, image_width, image_height)
    for options in variant_options:
        if options.disjunction_strategy != "bigm":
            raise SchedulingError("Compound scheduling requires the big-M strategy")
    backend = variant_options[0].backend
    if any(options.backend != backend for options in variant_options):
        raise SchedulingError("Compound scheduling requires one shared backend")

    started = time.perf_counter()
    plans = []
    with trace_span("solve", strategy="compound", variants=len(variant_options)):
        for options in variant_options:
            prologue = _constraint_prologue(dag, image_width, memory_spec, options)
            warm_cycles: dict[str, int] | None = None
            certified: int | None = None
            detail = "none"
            if base_hint is not None:
                warm_cycles, certified, detail = _attempt_warm_start(
                    dag, image_width, prologue, options, base_hint
                )
            plans.append({
                "options": options,
                "prologue": prologue,
                "certified": certified,
                "warm_cycles": warm_cycles,
                "detail": detail,
            })

        pending = [plan for plan in plans if plan["certified"] is None]
        if pending:
            built = [
                _build_big_m(
                    dag, image_width, plan["prologue"].dependencies,
                    plan["prologue"].disjunctions, plan["prologue"].horizon,
                )
                for plan in pending
            ]
            compound, blocks = merge_models(
                [model for model, _, _, _ in built], name=f"{dag.name}-compound"
            )
            combined, results = solve_compound(compound, blocks, backend=backend)
            for plan, (model, start_vars, _, _), result in zip(pending, built, results):
                if result.status is not SolveStatus.OPTIMAL:
                    raise SchedulingError(
                        f"Compound scheduling block for {dag.name!r} is {result.status.value} "
                        f"(backend {result.backend}, {result.message})"
                    )
                plan["start_cycles"] = {
                    stage: int(round(result.value_by_name(var.name)))
                    for stage, var in start_vars.items()
                }
                plan["objective"] = float(result.objective or 0.0)
                plan["stats"] = {
                    "backend": result.backend,
                    "ilp_variables": model.num_variables,
                    "ilp_constraints": model.num_constraints,
                    "lp_iterations": result.iterations,
                    "solves": 1,
                }
        for plan in plans:
            if plan["certified"] is not None:
                with trace_span("ilp", backend="warmstart"):
                    span_attr(
                        status="optimal", lp_iterations=0, bnb_pruned=0,
                        warm_start="certificate",
                    )
                plan["start_cycles"] = plan["warm_cycles"]
                plan["objective"] = float(plan["certified"])
                plan["stats"] = _certificate_stats()
        span_attr(
            objective=sum(plan["objective"] for plan in plans),
            solves=len(pending),
            certified=len(plans) - len(pending),
        )

    elapsed = time.perf_counter() - started
    schedules = []
    for plan in plans:
        stats = plan["stats"]
        stats["compound_variants"] = len(plans)
        if base_hint is not None:
            stats["warm_start"] = "certificate" if plan["certified"] is not None else plan["detail"]
        schedules.append(
            _finalize_schedule(
                dag, image_width, image_height, memory_spec, plan["options"],
                plan["prologue"], plan["start_cycles"], plan["objective"], stats,
                elapsed / len(plans),
            )
        )
    return schedules


def _finalize_schedule(
    dag: PipelineDAG,
    image_width: int,
    image_height: int,
    memory_spec: MemorySpec,
    options: SchedulerOptions,
    prologue: _Prologue,
    start_cycles: dict[str, int],
    objective: float,
    solver_stats: dict,
    elapsed: float,
) -> PipelineSchedule:
    solver_stats.update(
        {
            "objective": objective,
            "compile_seconds": elapsed,
            "ports": prologue.ports,
            "raw_contention_candidates": prologue.raw_candidates,
            "pruned_contention_candidates": prologue.pruned_candidates,
            "num_disjunctions": len(prologue.disjunctions),
            "subproblems": count_subproblems(prologue.disjunctions),
            "pruning": options.pruning,
            "strategy": options.disjunction_strategy,
        }
    )

    line_buffers = realize_line_buffers(
        dag, image_width, memory_spec, start_cycles, prologue.factors, prologue.ports
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
    generator = "imagen+lc" if options.coalescing else "imagen"
    return PipelineSchedule(
        dag=dag,
        image_width=image_width,
        image_height=image_height,
        memory_spec=memory_spec,
        start_cycles=start_cycles,
        line_buffers=line_buffers,
        generator=generator,
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


def _base_model(
    dag: PipelineDAG,
    dependencies: list[DependencyConstraint],
    horizon: int,
    name: str,
):
    """The model shared by both disjunction strategies: variables, Eq. 1a/1b."""
    model = Model(name=name, sense="min")
    start_vars = {
        stage: model.add_integer_var(f"S[{stage}]", lb=0, ub=horizon)
        for stage in dag.stage_names()
    }
    for stage in dag.input_stages():
        model.add_constraint(
            (start_vars[stage.name] + 0.0).eq(0.0), name=f"anchor[{stage.name}]"
        )
    for dep in dependencies:
        model.add_constraint(
            start_vars[dep.consumer] - start_vars[dep.producer] >= dep.min_delay,
            name=f"dep[{dep.producer}->{dep.consumer}]",
        )

    # Objective: sum over producers of the maximum consumer delay (Eq. 1a with
    # the ceiling dropped, which the paper shows preserves optimality).
    delay_vars = {}
    for producer in dag.stage_names():
        consumers = dag.consumers_of(producer)
        if not consumers:
            continue
        delay = model.add_integer_var(f"D[{producer}]", lb=0, ub=horizon)
        delay_vars[producer] = delay
        for consumer in consumers:
            model.add_constraint(
                delay - (start_vars[consumer] - start_vars[producer]) >= 0,
                name=f"maxdelay[{producer}->{consumer}]",
            )
    model.set_objective(linear_sum(delay_vars.values()))
    return model, start_vars, delay_vars


def _separation_constraint(start_vars, separation: PairSeparation):
    gap = separation.min_gap
    return (
        start_vars[separation.trailing] - start_vars[separation.leading] >= gap
    )


def _build_big_m(
    dag: PipelineDAG,
    image_width: int,
    dependencies: list[DependencyConstraint],
    disjunctions: list[Disjunction],
    horizon: int,
):
    """Build the big-M model; returns (model, start vars, delay vars, indicators)."""
    model, start_vars, delay_vars = _base_model(dag, dependencies, horizon, f"{dag.name}-bigm")
    big_m = 2 * horizon + image_width

    indicator_specs: list[tuple] = []
    for index, disjunction in enumerate(disjunctions):
        if disjunction.is_singleton:
            model.add_constraint(
                _separation_constraint(start_vars, disjunction.candidates[0]),
                name=f"sep[{disjunction.buffer}:{index}]",
            )
            continue
        indicators = []
        for cand_index, candidate in enumerate(disjunction.candidates):
            indicator = model.add_binary_var(f"y[{disjunction.buffer}:{index}:{cand_index}]")
            indicators.append(indicator)
            indicator_specs.append((indicator, candidate))
            gap = candidate.min_gap
            # S_t - S_l >= gap - M*(1 - y): enforced when the indicator y is 1.
            model.add_constraint(
                start_vars[candidate.trailing]
                - start_vars[candidate.leading]
                - big_m * indicator
                >= gap - big_m,
                name=f"sepM[{disjunction.buffer}:{index}:{cand_index}]",
            )
        model.add_constraint(
            linear_sum(indicators) >= 1, name=f"cover[{disjunction.buffer}:{index}]"
        )
    return model, start_vars, delay_vars, indicator_specs


def _warm_values(dag, start_vars, delay_vars, indicator_specs, cycles):
    """Complete a start-cycle candidate into a full big-M model assignment."""
    values = {var: float(cycles[stage]) for stage, var in start_vars.items()}
    for producer, delay_var in delay_vars.items():
        values[delay_var] = float(
            max(cycles[consumer] - cycles[producer] for consumer in dag.consumers_of(producer))
        )
    for indicator, candidate in indicator_specs:
        satisfied = cycles[candidate.trailing] - cycles[candidate.leading] >= candidate.min_gap
        values[indicator] = 1.0 if satisfied else 0.0
    return values


def _solve_big_m(
    dag: PipelineDAG,
    image_width: int,
    dependencies: list[DependencyConstraint],
    disjunctions: list[Disjunction],
    horizon: int,
    options: SchedulerOptions,
    warm_cycles: dict[str, int] | None = None,
):
    model, start_vars, delay_vars, indicator_specs = _build_big_m(
        dag, image_width, dependencies, disjunctions, horizon
    )
    warm_start = None
    if warm_cycles is not None:
        warm_start = WarmStart(
            values=_warm_values(dag, start_vars, delay_vars, indicator_specs, warm_cycles)
        )

    result = solve(model, backend=options.backend, warm_start=warm_start, raise_on_failure=False)
    if result.status is not SolveStatus.OPTIMAL:
        raise SchedulingError(
            f"Scheduling ILP for {dag.name!r} is {result.status.value} "
            f"(backend {result.backend}, {result.message})"
        )
    start_cycles = {stage: int(round(result.value(var))) for stage, var in start_vars.items()}
    stats = {
        "backend": result.backend,
        "ilp_variables": model.num_variables,
        "ilp_constraints": model.num_constraints,
        "lp_iterations": result.iterations,
        "solves": 1,
    }
    if warm_start is not None:
        stats["warm_seed"] = result.warm_start
    return start_cycles, float(result.objective or 0.0), stats


def _solve_by_enumeration(
    dag: PipelineDAG,
    image_width: int,
    dependencies: list[DependencyConstraint],
    disjunctions: list[Disjunction],
    horizon: int,
    options: SchedulerOptions,
):
    singles = [d for d in disjunctions if d.is_singleton]
    multis = [d for d in disjunctions if not d.is_singleton]
    total = count_subproblems(multis)
    if total > options.max_subproblems:
        raise SchedulingError(
            f"Enumeration would require {total} sub-problems "
            f"(limit {options.max_subproblems}); use the big-M strategy"
        )

    best_cycles: dict[str, int] | None = None
    best_objective = float("inf")
    solves = 0
    variables = constraints = 0
    choice_lists = [d.candidates for d in multis]
    for combo in itertools.product(*choice_lists) if multis else [()]:
        model, start_vars, _ = _base_model(
            dag, dependencies, horizon, f"{dag.name}-enum-{solves}"
        )
        for index, disjunction in enumerate(singles):
            model.add_constraint(
                _separation_constraint(start_vars, disjunction.candidates[0]),
                name=f"sep[{disjunction.buffer}:{index}]",
            )
        for index, candidate in enumerate(combo):
            model.add_constraint(
                _separation_constraint(start_vars, candidate), name=f"sepE[{index}]"
            )
        solves += 1
        variables = model.num_variables
        constraints = model.num_constraints
        result = solve(model, backend=options.backend, raise_on_failure=False)
        if result.status is not SolveStatus.OPTIMAL:
            continue
        if result.objective is not None and result.objective < best_objective:
            best_objective = float(result.objective)
            best_cycles = {
                stage: int(round(result.value(var))) for stage, var in start_vars.items()
            }

    if best_cycles is None:
        raise SchedulingError(
            f"All {solves} enumeration sub-problems for {dag.name!r} were infeasible"
        )
    stats = {
        "backend": options.backend,
        "ilp_variables": variables,
        "ilp_constraints": constraints,
        "solves": solves,
    }
    return best_cycles, best_objective, stats


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
            if factor > 1 and lines % factor:
                # Keep the line->block grouping stable as the buffer wraps around.
                lines += factor - (lines % factor)
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
