"""Exact arboricity via matroid partition (Edmonds augmenting paths).

``can_partition_into_forests(g, k)`` decides whether the edge set splits
into ``k`` forests by incrementally inserting edges with augmenting-path
relocation in the exchange graph of the k-fold graphic matroid union.
``arboricity`` searches the smallest feasible ``k`` starting from the
Nash-Williams lower bound ``max ceil(m/(n-1))`` and stopping at the
degeneracy upper bound.

Also provides :func:`nash_williams_brute` (exponential; tiny graphs only)
used by the tests to cross-validate, per Lemma 2.5.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from math import ceil
from typing import Optional

from ..errors import ParameterError
from ..graphs.graph import DynamicGraph, Edge, norm_edge
from .exact_kcore import degeneracy


class _Forest:
    """One forest of the partition: adjacency + path queries."""

    def __init__(self) -> None:
        self.adj: dict[int, set[int]] = {}

    def add(self, e: Edge) -> None:
        u, v = e
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)

    def remove(self, e: Edge) -> None:
        u, v = e
        self.adj[u].discard(v)
        self.adj[v].discard(u)

    def path(self, src: int, dst: int) -> Optional[list[Edge]]:
        """Edge path src -> dst inside the forest, or None if disconnected."""
        if src not in self.adj or dst not in self.adj:
            return None
        parent: dict[int, int] = {src: src}
        q = deque([src])
        while q:
            u = q.popleft()
            if u == dst:
                out: list[Edge] = []
                while u != src:
                    out.append(norm_edge(u, parent[u]))
                    u = parent[u]
                return out
            for w in self.adj.get(u, ()):
                if w not in parent:
                    parent[w] = u
                    q.append(w)
        return None



def can_partition_into_forests(g: DynamicGraph, k: int) -> Optional[list[set[Edge]]]:
    """Partition edges into ``k`` forests, or None if impossible."""
    if k < 0:
        raise ParameterError("k must be >= 0")
    if g.m == 0:
        return [set() for _ in range(k)]
    if k == 0:
        return None
    forests = [_Forest() for _ in range(k)]
    where: dict[Edge, int] = {}

    for e in sorted(g.edges):
        if not _augment(forests, where, e, k):
            return None
    out: list[set[Edge]] = [set() for _ in range(k)]
    for edge, i in where.items():
        out[i].add(edge)
    return out


def _augment(forests: list[_Forest], where: dict[Edge, int], root: Edge, k: int) -> bool:
    """BFS in the exchange graph to make room for ``root``."""
    parent: dict[Edge, tuple[Edge, int]] = {}  # y -> (x, i): x enters i once y leaves
    visited: set[Edge] = {root}
    q: deque[Edge] = deque([root])
    while q:
        x = q.popleft()
        x_home = where.get(x)  # None only for the root
        for i in range(k):
            if i == x_home:
                continue
            cycle = forests[i].path(x[0], x[1])
            if cycle is None:
                # forest i accepts x directly -> unwind the chain
                _relocate(forests, where, x, i, parent)
                return True
            for y in cycle:
                if y not in visited:
                    visited.add(y)
                    parent[y] = (x, i)
                    q.append(y)
    return False


def _relocate(
    forests: list[_Forest],
    where: dict[Edge, int],
    x: Edge,
    dest: int,
    parent: dict[Edge, tuple[Edge, int]],
) -> None:
    """Move ``x`` into ``dest`` and cascade the parent chain."""
    while True:
        old = where.get(x)
        if old is not None:
            forests[old].remove(x)
        forests[dest].add(x)
        where[x] = dest
        if x not in parent:
            return
        nxt, into = parent[x]
        # x vacated its old forest, which is exactly the forest nxt waits on.
        if old is not None and old != into:
            raise AssertionError("exchange-chain bookkeeping broken")
        x, dest = nxt, into


def arboricity(g: DynamicGraph) -> int:
    """Exact arboricity (0 for edgeless graphs)."""
    if g.m == 0:
        return 0
    n_touched = len({v for e in g.edges for v in e})
    lower = max(1, ceil(g.m / max(1, n_touched - 1)))
    upper = max(lower, degeneracy(g))
    for k in range(lower, upper + 1):
        if can_partition_into_forests(g, k) is not None:
            return k
    return upper  # degeneracy always suffices


def nash_williams_brute(g: DynamicGraph) -> int:
    """Nash-Williams formula by brute force over vertex subsets (tiny n!)."""
    touched = sorted({v for e in g.edges for v in e})
    if len(touched) > 16:
        raise ParameterError("brute force limited to <= 16 touched vertices")
    best = 0
    for size in range(2, len(touched) + 1):
        for sub in combinations(touched, size):
            keep = set(sub)
            m_sub = sum(1 for (u, v) in g.edges if u in keep and v in keep)
            best = max(best, ceil(m_sub / (size - 1)))
    return best
