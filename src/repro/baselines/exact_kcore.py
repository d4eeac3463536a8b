"""Exact coreness via peeling — the ground truth for every experiment.

Two implementations:

* :func:`core_numbers` — the classic O(m) bucket-peeling algorithm
  (Batagelj–Zaveršnik), sequential, used as the oracle in tests.
* :func:`parallel_core_numbers` — layer-synchronous peeling ("peel all
  vertices of degree <= k at once"), the standard parallel formulation
  (Julienne [DBS17] style), with work/depth accounting.  Its *depth* is
  Θ(peeling rounds), which can be Θ(n) on a path — this is exactly the
  reason the paper's batch-dynamic approach is interesting, and experiment
  E9 uses it as the static-parallel comparator.
"""

from __future__ import annotations

from typing import Optional

from ..graphs.graph import DynamicGraph
from ..instrument.work_depth import CostModel


def core_numbers(g: DynamicGraph) -> dict[int, int]:
    """Exact coreness of every vertex (min-degree peeling, O(m log n)).

    Repeatedly removes a minimum-residual-degree vertex; the coreness of a
    vertex is the largest minimum degree seen up to its removal (the
    standard degeneracy-ordering argument).  Heap with lazy deletion.
    """
    import heapq

    cur = {v: g.degree(v) for v in range(g.n)}
    heap = [(d, v) for v, d in cur.items()]
    heapq.heapify(heap)
    removed = [False] * g.n if g.n else []
    core: dict[int, int] = {}
    k = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != cur[v]:
            continue  # stale entry
        removed[v] = True
        k = max(k, d)
        core[v] = k
        for w in g.neighbors(v):
            if not removed[w]:
                cur[w] -= 1
                heapq.heappush(heap, (cur[w], w))
    return core


def degeneracy(g: DynamicGraph) -> int:
    """The graph degeneracy = max coreness (0 for empty graphs)."""
    cores = core_numbers(g)
    return max(cores.values(), default=0)


def parallel_core_numbers(
    g: DynamicGraph, cm: Optional[CostModel] = None
) -> tuple[dict[int, int], int]:
    """Layer-synchronous peeling; returns (coreness map, #peel rounds).

    Each round removes *all* vertices whose residual degree is <= the
    current k in parallel (O(removed + their edges) work, O(1) depth per
    round after a parallel filter).  Depth is proportional to the number of
    rounds, which is the quantity the batch-dynamic algorithm avoids.
    """
    cur = {v: g.degree(v) for v in range(g.n)}
    alive = {v for v in range(g.n)}
    core: dict[int, int] = {v: 0 for v in range(g.n)}
    k = 0
    rounds = 0
    while alive:
        frontier = [v for v in sorted(alive) if cur[v] <= k]
        if cm is not None:
            cm.charge(work=len(alive), depth=1)  # the parallel filter
        if not frontier:
            k += 1
            continue
        while frontier:
            rounds += 1
            if cm is not None:
                work = len(frontier) + sum(len(g.neighbors(v)) for v in frontier)
                cm.charge(work=work, depth=1)
            next_frontier: list[int] = []
            for v in frontier:
                alive.discard(v)
                core[v] = k
            for v in frontier:
                for w in g.neighbors(v):
                    if w in alive:
                        cur[w] -= 1
            for v in sorted(set(w for u in frontier for w in g.neighbors(u) if w in alive)):
                if cur[v] <= k:
                    next_frontier.append(v)
            frontier = next_frontier
        k += 1
    return core, rounds


def max_coreness(g: DynamicGraph) -> int:
    """The degeneracy of ``g`` — equivalently its maximum coreness."""
    return degeneracy(g)

