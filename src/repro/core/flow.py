"""Exact solve of a difference-constraint LP by min-cost flow.

Once pruning leaves no true disjunction, the scheduling ILP is a plain
difference system: minimise ``sum_v c_v * x_v`` subject to arcs
``x_b - x_a >= w``, anchored nodes at ``x = 0`` and ``0 <= x <= horizon``.
Its LP dual is an uncapacitated min-cost flow (maximise ``sum w * f`` with
node ``v`` absorbing a net inflow of ``c_v``), so the optimum is integral and
needs neither simplex nor branching.  :func:`earliest_optimum` solves it by
successive shortest paths with Dijkstra on reduced costs, keeping the
schedule itself as the node potentials.

Ties are real, so the kernel returns one documented optimum: the
componentwise-least one.  By complementary slackness every optimal schedule
is tight on every arc that carries flow in an optimal flow, and every
feasible schedule tight on those arcs is optimal.  The optimal set is
therefore itself a difference system (all arcs, plus the reverse of each
flow-carrying arc), hence a lattice, whose least point is the vector of
longest paths from the anchored root.

The scheduler's constraints reach the kernel through
:func:`difference_system`, which splits them into the arcs every schedule
must honour and the true disjunctions, and :func:`branch_arcs`, which fixes
one candidate of each disjunction per branch.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Hashable, Iterable, Mapping
from itertools import product

__all__ = ["branch_arcs", "difference_system", "earliest_optimum"]


def difference_system(dependencies, disjunctions):
    """Collapse the scheduling constraints into (mandatory edges, multis).

    ``mandatory`` maps ``(producer, consumer)`` to the tightest separation
    every feasible schedule must honour: the dependency and safety
    constraints plus the sole candidate of each singleton disjunction.
    ``multis`` are the remaining true disjunctions (one candidate of each
    must hold).
    """
    mandatory: dict[tuple[str, str], int] = {}
    for dep in dependencies:
        _tighten(mandatory, (dep.producer, dep.consumer), dep.min_delay)
    multis = []
    for disjunction in disjunctions:
        if disjunction.is_singleton:
            candidate = disjunction.candidates[0]
            _tighten(mandatory, (candidate.leading, candidate.trailing), candidate.min_gap)
        else:
            multis.append(disjunction)
    return mandatory, multis


def branch_arcs(mandatory, multis):
    """Yield the difference system of each disjunct combination: the
    mandatory edges plus one chosen candidate of every true disjunction (a
    paper sub-problem, Sec. 5.4)."""
    for choice in product(*(disjunction.candidates for disjunction in multis)):
        arcs = dict(mandatory)
        for candidate in choice:
            _tighten(arcs, (candidate.leading, candidate.trailing), candidate.min_gap)
        yield arcs


def _tighten(arcs, key, rhs: int) -> None:
    """Keep the largest separation asked of each ordered pair."""
    if key not in arcs or rhs > arcs[key]:
        arcs[key] = rhs


def earliest_optimum(
    nodes: Iterable[Hashable],
    arcs: Mapping[tuple[Hashable, Hashable], int],
    costs: Mapping[Hashable, int],
    *,
    anchored: Iterable[Hashable],
    horizon: int,
) -> tuple[dict[Hashable, int], int] | None:
    """The least optimal ``x`` and its objective, or ``None`` if infeasible.

    ``arcs`` maps ``(a, b)`` to ``w`` for ``x_b - x_a >= w``; ``costs`` gives
    the objective coefficient of each node (missing nodes cost 0).  Every node
    lies in ``[0, horizon]`` and every ``anchored`` node is fixed at 0.  Among
    all optimal schedules the one returned is componentwise least (see the
    module docstring), so ties never depend on arc or node order.
    """
    names = list(nodes)
    index = {name: i for i, name in enumerate(names)}
    root = len(names)
    weights: dict[tuple[int, int], int] = {}
    for (a, b), w in arcs.items():
        _tighten(weights, (index[a], index[b]), w)
    for v in range(root):
        _tighten(weights, (root, v), 0)
        _tighten(weights, (v, root), -horizon)
    for name in anchored:
        _tighten(weights, (index[name], root), 0)

    size = root + 1
    tail, head, weight = [], [], []
    out: list[list[int]] = [[] for _ in range(size)]
    inc: list[list[int]] = [[] for _ in range(size)]
    for arc, ((a, b), w) in enumerate(weights.items()):
        tail.append(a)
        head.append(b)
        weight.append(w)
        out[a].append(arc)
        inc[b].append(arc)

    x = _longest_paths(size, root, out, head, weight)
    if x is None:
        return None

    # Node v must absorb a net inflow of c_v; the root's balance is free.
    excess = [0] * size
    for name, cost in costs.items():
        excess[index[name]] -= cost
        excess[root] += cost
    flow = [0] * len(weight)
    while any(excess):
        dist, pred, sink = _dijkstra(
            [v for v in range(size) if excess[v] > 0], x, flow, out, inc, tail, head, weight,
            stop=lambda v: excess[v] < 0,
        )
        # Settled nodes lie within the sink's distance; the rest move by it.
        for v in range(size):
            x[v] -= dist.get(v, dist[sink])
        amount, v, path = -excess[sink], sink, []
        while v in pred:
            arc, forward = pred[v]
            path.append((arc, forward))
            if not forward:
                amount = min(amount, flow[arc])
            v = tail[arc] if forward else head[arc]
        amount = min(amount, excess[v])
        for arc, forward in path:
            flow[arc] += amount if forward else -amount
        excess[v] -= amount
        excess[sink] += amount

    shift = x[root]
    x = [value - shift for value in x]
    # Least point of the optimal face: longest paths from the root over every
    # arc and the reverse of every flow-carrying arc, read off as x minus the
    # shortest slack path (all slacks are non-negative).
    slack, _, _ = _dijkstra([root], x, flow, out, inc, tail, head, weight)
    least = {name: x[i] - slack[i] for i, name in enumerate(names)}
    return least, sum(cost * least[name] for name, cost in costs.items())


def _longest_paths(size, root, out, head, weight) -> list[int] | None:
    """Longest walk from ``root`` (queue-based Bellman-Ford), or ``None`` on a
    positive cycle.  The result is the least feasible schedule."""
    dist = [None] * size
    dist[root] = 0
    queued = [False] * size
    passes = [0] * size
    queue = deque([root])
    queued[root] = True
    while queue:
        a = queue.popleft()
        queued[a] = False
        passes[a] += 1
        if passes[a] > size:
            return None
        here = dist[a]
        for arc in out[a]:
            b = head[arc]
            value = here + weight[arc]
            if dist[b] is None or value > dist[b]:
                if b == root:
                    return None  # the anchored root itself would have to move
                dist[b] = value
                if not queued[b]:
                    queued[b] = True
                    queue.append(b)
    return dist


def _dijkstra(sources, x, flow, out, inc, tail, head, weight, stop=None):
    """Shortest reduced-cost paths in the residual graph from ``sources``.

    A forward arc costs its slack ``x_b - x_a - w``; an arc with flow may be
    walked backwards at cost ``-slack``, which is 0.  Stops at the first
    settled node for which ``stop`` holds; returns (settled distances,
    predecessor arcs, that node).
    """
    dist: dict[int, int] = {}
    pred: dict[int, tuple[int, bool]] = {}
    best = {v: 0 for v in sources}
    heap = [(0, v) for v in sources]
    while heap:
        d, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        if stop is not None and stop(v):
            return dist, pred, v
        xv = x[v]
        for arc in out[v]:
            u = head[arc]
            nd = d + x[u] - xv - weight[arc]
            if u not in dist and nd < best.get(u, nd + 1):
                best[u] = nd
                pred[u] = (arc, True)
                heapq.heappush(heap, (nd, u))
        for arc in inc[v]:
            if flow[arc]:
                u = tail[arc]
                nd = d + x[u] - xv + weight[arc]
                if u not in dist and nd < best.get(u, nd + 1):
                    best[u] = nd
                    pred[u] = (arc, False)
                    heapq.heappush(heap, (nd, u))
    return dist, pred, None
