"""Warm-starting the scheduling ILP from a neighboring solved design.

The compile cache frequently holds the solution of a *near* neighbor of the
target being scheduled: the same DAG at another resolution, or with another
per-stage coalescing selection (the Fig. 10 sweep's ``2^k`` variants).  Every
mandatory constraint of the scheduling ILP is a difference constraint
``S_b - S_a >= rhs(W)`` whose right-hand side is affine in the image width
``W`` — dependencies need ``(h-1)W + 1``, coalescing safety ``hW``, pair
separations ``SH*W`` (plus ``(F-1)W`` on coalesced buffers).  That structure
makes the neighbor's solution transferable:

1. **Binding edges** — find every difference edge (mandatory constraint or
   disjunction candidate) the neighbor's schedule satisfies with *equality*.
   These are the edges that shaped its optimum.
2. **Propagation** — re-impose the same edges as equalities at the target's
   width/factors and propagate start cycles outward from the anchored input
   stages.  Any vanished edge, inconsistency or uncovered stage aborts the
   transfer (the caller falls back to a cold solve).
3. **Certificate** — the transferred candidate is only trusted when it is
   (a) legal for the *target's* full constraint system and (b) provably
   optimal: its objective equals the longest-walk lower bound over the
   target's difference graph, minimized over the disjunct choices
   (:func:`disjunctive_lower_bound`).  Only then may the scheduler skip the
   ILP entirely; otherwise it solves cold.

The longest-walk bound is valid for *any* choice of disjuncts: it uses only
constraints every feasible schedule must satisfy, and the objective
``sum_p max_c (S_c - S_p)`` is bounded below by summing, per producer, the
longest mandatory-edge walk to its furthest consumer.  Minimizing the bound
over the (few) true-disjunction choices keeps it valid while closing the
gap those disjunctions would otherwise leave.  Equality then certifies
global optimality of the candidate without touching an LP.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import product

from repro.core.constraints import (
    Disjunction,
    coalescing_safety_constraints,
    contention_disjunctions,
    data_dependency_constraints,
    schedule_horizon,
)
from repro.core.pruning import prune_disjunctions
from repro.ir.dag import PipelineDAG

__all__ = [
    "WarmHint",
    "hint_from_schedule",
    "difference_system",
    "branch_arcs",
    "schedule_is_legal",
    "schedule_objective",
    "dependency_lower_bound",
    "disjunctive_lower_bound",
    "try_warm_transfer",
]


@dataclass(frozen=True)
class WarmHint:
    """A solved neighbor design offered as a seed for a new solve.

    Carries exactly what the transfer needs to reconstruct the neighbor's
    constraint system: its start cycles, image width, per-stage coalescing
    factors and port count.  ``objective``/``fingerprint`` are provenance for
    stats and logs.
    """

    start_cycles: dict[str, int] = field(default_factory=dict)
    image_width: int = 0
    coalesce_factors: dict[str, int] = field(default_factory=dict)
    ports: int = 1
    objective: float | None = None
    fingerprint: str = ""


def hint_from_schedule(schedule) -> WarmHint:
    """Build a :class:`WarmHint` from a solved :class:`PipelineSchedule`."""
    stats = schedule.solver_stats or {}
    objective = stats.get("objective")
    return WarmHint(
        start_cycles=dict(schedule.start_cycles),
        image_width=schedule.image_width,
        coalesce_factors=dict(schedule.coalesce_factors),
        ports=int(stats.get("ports", schedule.memory_spec.ports)),
        objective=float(objective) if objective is not None else None,
    )


def difference_system(dependencies, disjunctions):
    """Collapse the scheduling constraints into (mandatory edges, multis).

    ``mandatory`` maps ``(producer, consumer)`` to the tightest separation
    every feasible schedule must honour — dependency/safety constraints plus
    the sole candidate of each singleton disjunction.  ``multis`` are the
    remaining true disjunctions (one candidate of each must hold).
    """
    mandatory: dict[tuple[str, str], int] = {}

    def tighten(a: str, b: str, rhs: int) -> None:
        key = (a, b)
        if rhs > mandatory.get(key, -(1 << 62)):
            mandatory[key] = rhs

    for dep in dependencies:
        tighten(dep.producer, dep.consumer, dep.min_delay)
    multis: list[Disjunction] = []
    for disjunction in disjunctions:
        if disjunction.is_singleton:
            candidate = disjunction.candidates[0]
            tighten(candidate.leading, candidate.trailing, candidate.min_gap)
        else:
            multis.append(disjunction)
    return mandatory, multis


def _with_candidates(mandatory, candidates):
    """``mandatory`` plus each candidate's separation, max-merged per pair."""
    arcs = dict(mandatory)
    for candidate in candidates:
        key = (candidate.leading, candidate.trailing)
        if candidate.min_gap > arcs.get(key, -(1 << 62)):
            arcs[key] = candidate.min_gap
    return arcs


def branch_arcs(mandatory, multis):
    """Yield the difference system of each disjunct combination: the
    mandatory edges plus one chosen candidate of every true disjunction (a
    paper sub-problem, Sec. 5.4)."""
    for choice in product(*(disjunction.candidates for disjunction in multis)):
        yield _with_candidates(mandatory, choice)


def _pair_weights(mandatory, multis):
    """Max-merged separation per ordered stage pair, candidates included."""
    return _with_candidates(
        mandatory, (candidate for disjunction in multis for candidate in disjunction.candidates)
    )


def schedule_is_legal(cycles, mandatory, multis) -> bool:
    """Does ``cycles`` satisfy every mandatory edge and cover every disjunction?"""
    for (a, b), rhs in mandatory.items():
        if cycles[b] - cycles[a] < rhs:
            return False
    for disjunction in multis:
        if not any(
            cycles[c.trailing] - cycles[c.leading] >= c.min_gap
            for c in disjunction.candidates
        ):
            return False
    return True


def schedule_objective(dag: PipelineDAG, cycles) -> int:
    """The ILP objective (Eq. 1a): per-producer maximum consumer delay."""
    total = 0
    for producer in dag.stage_names():
        consumers = dag.consumers_of(producer)
        if consumers:
            total += max(cycles[c] - cycles[producer] for c in consumers)
    return total


def dependency_lower_bound(dag: PipelineDAG, mandatory) -> int:
    """Longest-walk lower bound on the objective over the mandatory edges.

    For each producer, every consumer's start is at least the longest
    mandatory-edge walk from the producer (all edge weights are positive, so
    a feasible system has no directed cycles and the walk values are finite).
    Summing each producer's furthest consumer bounds the objective from
    below, for any disjunct selection.
    """
    stages = list(dag.stage_names())
    outgoing: dict[str, list[tuple[str, int]]] = {stage: [] for stage in stages}
    for (a, b), rhs in mandatory.items():
        outgoing[a].append((b, rhs))

    total = 0
    for producer in stages:
        consumers = dag.consumers_of(producer)
        if not consumers:
            continue
        # Bellman-Ford longest walk from this producer; graphs are tiny
        # (tens of stages), so the quadratic sweep is immaterial.
        dist = {producer: 0}
        for _ in range(len(stages)):
            changed = False
            for a, edges in outgoing.items():
                if a not in dist:
                    continue
                for b, rhs in edges:
                    candidate = dist[a] + rhs
                    if candidate > dist.get(b, -(1 << 62)):
                        dist[b] = candidate
                        changed = True
            if not changed:
                break
        total += max(dist.get(consumer, 0) for consumer in consumers)
    return total


def disjunctive_lower_bound(dag: PipelineDAG, mandatory, multis, max_combos: int = 256) -> int:
    """Walk lower bound strengthened by enumerating the disjunct choices.

    The mandatory-only bound of :func:`dependency_lower_bound` ignores the
    true disjunctions entirely, and on the multi-consumer pipelines (canny-m,
    harris-m) that leaves an integrality-style gap of exactly ``W - 1``: the
    disjunction *does* force one of its separations, the bound just does not
    know which.  Every feasible schedule satisfies at least one candidate per
    disjunction, so its objective is bounded by the walk bound over
    ``mandatory + its choices``, and hence by the *minimum* of that bound over
    all choice combinations.  The pruned systems have at most a handful of
    true disjunctions with two or three candidates each, so the product is
    tiny; past ``max_combos`` the function degrades to the mandatory-only
    bound (still valid, merely weaker).
    """
    combos = 1
    for disjunction in multis:
        combos *= len(disjunction.candidates)
    if not multis or combos > max_combos:
        return dependency_lower_bound(dag, mandatory)
    return min(dependency_lower_bound(dag, edges) for edges in branch_arcs(mandatory, multis))


def _neighbor_system(dag: PipelineDAG, hint: WarmHint, pruning: bool, order):
    """Rebuild the mandatory/disjunctive system the neighbor was solved under."""
    factors = {stage: hint.coalesce_factors.get(stage, 1) for stage in dag.stage_names()}
    dependencies = data_dependency_constraints(dag, hint.image_width)
    dependencies.extend(coalescing_safety_constraints(dag, hint.image_width, factors))
    disjunctions = contention_disjunctions(
        dag, hint.image_width, hint.ports, coalesce_factors=factors, order=order
    )
    if pruning:
        disjunctions = prune_disjunctions(disjunctions, dag, order)
    return difference_system(dependencies, disjunctions)


def try_warm_transfer(
    dag: PipelineDAG,
    hint: WarmHint,
    *,
    image_width: int,
    mandatory,
    multis,
    pruning: bool,
    order,
) -> tuple[dict[str, int] | None, str]:
    """Transfer the neighbor's schedule to the target constraint system.

    Returns ``(cycles, detail)``: the transferred start cycles, or ``None``
    with a reason — ``"stale-hint"`` (the hint does not cover this DAG),
    ``"vanished-edge"`` (a binding edge has no counterpart at the target
    width), ``"inconsistent"`` / ``"underdetermined"`` (the binding equalities
    do not pin a unique schedule), ``"out-of-range"`` (propagated cycles
    escape the horizon).  Legality against the *target* system is checked
    here too (``"illegal"``), so a non-``None`` result is always feasible.
    """
    neighbor = hint.start_cycles
    stages = list(dag.stage_names())
    if hint.image_width < 2 or any(stage not in neighbor for stage in stages):
        return None, "stale-hint"

    old_mandatory, old_multis = _neighbor_system(dag, hint, pruning, order)

    binding: list[tuple[str, str]] = []
    for (a, b), rhs in old_mandatory.items():
        if neighbor[b] - neighbor[a] == rhs:
            binding.append((a, b))
    for disjunction in old_multis:
        for candidate in disjunction.candidates:
            if neighbor[candidate.trailing] - neighbor[candidate.leading] == candidate.min_gap:
                binding.append((candidate.leading, candidate.trailing))

    weights = _pair_weights(mandatory, multis)
    adjacency: dict[str, list[tuple[str, int]]] = {stage: [] for stage in stages}
    for a, b in binding:
        rhs = weights.get((a, b))
        if rhs is None:
            return None, "vanished-edge"
        adjacency[a].append((b, rhs))
        adjacency[b].append((a, -rhs))

    cycles: dict[str, int] = {stage.name: 0 for stage in dag.input_stages()}
    queue = deque(cycles)
    while queue:
        here = queue.popleft()
        for there, delta in adjacency[here]:
            value = cycles[here] + delta
            if there in cycles:
                if cycles[there] != value:
                    return None, "inconsistent"
            else:
                cycles[there] = value
                queue.append(there)
    if len(cycles) != len(stages):
        return None, "underdetermined"

    horizon = schedule_horizon(dag, image_width)
    if any(value < 0 or value > horizon for value in cycles.values()):
        return None, "out-of-range"
    if not schedule_is_legal(cycles, mandatory, multis):
        return None, "illegal"
    return cycles, "transferred"
