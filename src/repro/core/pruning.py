"""Constraint pruning (paper Sec. 5.4).

The contention constraints for one ``(P+1)``-combination are OR-ed: any one
pair-separation suffices.  Pruning removes candidates that *imply* another
candidate — removing an implied-from disjunct never changes the feasible set
(``A or B == B`` whenever ``A implies B``) but it shrinks the number of
disjunct combinations (the paper's sub-problems) and the scheduler's big-M
indicator variables, which is where the paper's 4x compile-time speedup
comes from.

Implication rule
----------------
Let candidate ``A`` require "``a`` trails ``b``" and candidate ``C`` require
"``c`` trails ``d``" over the same buffer.  ``A`` implies ``C`` when

* ``a ≼ c``  (``c`` equals or data-depends on ``a``, so ``S_c >= S_a``),
* ``d ≼ b``  (``b`` equals or data-depends on ``d``, so ``S_d <= S_b``),
* ``SH_c <= SH_a`` (the trailing gap ``C`` needs is no larger than ``A``'s).

This is the paper's theorem with the partial-order direction matched to its
own worked example (Fig. 6 / Eq. 13); see DESIGN.md for the notation note.
"""

from __future__ import annotations

from repro.core.constraints import Disjunction, PairSeparation
from repro.ir.dag import PipelineDAG
from repro.ir.traversal import partial_order


def implies(a: PairSeparation, c: PairSeparation, order: dict[str, set[str]]) -> bool:
    """True when satisfying candidate ``a`` necessarily satisfies candidate ``c``."""
    if a.buffer != c.buffer:
        return False
    a_precedes_c = c.trailing in order.get(a.trailing, set())
    d_precedes_b = a.leading in order.get(c.leading, set())
    return a_precedes_c and d_precedes_b and c.min_gap <= a.min_gap


def prune_candidates(
    candidates: list[PairSeparation], order: dict[str, set[str]]
) -> list[PairSeparation]:
    """Keep only the most relaxed candidates of one disjunction.

    A candidate is dropped when it implies another *kept* candidate.  Mutually
    equivalent candidates keep a single representative (first in input order).
    """
    kept: list[PairSeparation] = []
    for index, candidate in enumerate(candidates):
        dominated = False
        for other_index, other in enumerate(candidates):
            if index == other_index:
                continue
            if implies(candidate, other, order):
                # candidate implies other: other is at least as relaxed.
                if implies(other, candidate, order):
                    # Equivalent: keep only the earliest of the pair.
                    if other_index < index:
                        dominated = True
                        break
                else:
                    dominated = True
                    break
        if not dominated:
            kept.append(candidate)
    return kept


def prune_disjunctions(
    disjunctions: list[Disjunction],
    dag: PipelineDAG,
    order: dict[str, set[str]] | None = None,
) -> list[Disjunction]:
    """Apply :func:`prune_candidates` to every disjunction."""
    order = order if order is not None else partial_order(dag)
    pruned: list[Disjunction] = []
    for disjunction in disjunctions:
        pruned.append(
            Disjunction(
                buffer=disjunction.buffer,
                combination=disjunction.combination,
                candidates=prune_candidates(disjunction.candidates, order),
            )
        )
    return pruned


def count_subproblems(disjunctions: list[Disjunction]) -> int:
    """Number of disjunct combinations, the paper's ILP sub-problems (Sec. 5.4)."""
    total = 1
    for disjunction in disjunctions:
        total *= max(1, len(disjunction.candidates))
    return total
