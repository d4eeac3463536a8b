"""Per-vertex incoming-edge index (Section 4.1).

For each vertex ``v``, each truncated rank ``i in 1..H+1`` and each label
``c in 0..3``, the paper keeps a BST of the incoming edges ``(w -> v)``
with that truncated rank and label, ordered by ``min(H, d+(w))``.  The
only query ever issued is "give me an incoming edge with truncated rank
``i`` and label 0, whose tail sits at truncated level exactly ``L``".
Levels are bounded by ``H`` after truncation, so the level test is exact,
not an approximation.

No filing dimension is stored: the index is one sorted slab of in-tails,
and all three keys are read at probe time.  The tail's truncated level is
``min(H, level[w])``, read from the caller's level map.  The label of an
arc of rank ``<= H`` is always its tail's vertex label (arcs beyond rank
``H`` carry label 0), read from the caller's vertex-label map.  The
truncated rank of ``(w -> v, copy)`` is ``min(H + 1, rank of (v, copy) in
out[w])``, one binary search in the tail's out-set.  A relevel, a label
flip or a rank shift therefore re-files nothing; its cost is still
charged by the enclosing structure at the rate of the paper's re-file.
BALANCED(H) relevels a vertex at every settlement, so reading the level
at probe time is cheaper than keeping a level-bucketed slab current
(docs/PERFORMANCE.md §7).  The deletion game can also ask for the next
rank at which a level holds an unlabelled tail (:meth:`InIndex.next_rank`,
one pass over the slab) instead of probing every rank in between.

The slab is sorted rather than a hash set, and every probe answers with
the *minimum* matching tail.  The games only need *some* tail, but the
choice must be a pure function of the structure's logical state: a hash
set's iteration order depends on its internal table history, which
checkpoint restore and guard rollback rebuild in a different insertion
order -- and a restored structure must take the same trajectory as the
original to report identical answers and work/depth/counters
(docs/ROBUSTNESS.md).

Tail keys are ``(vertex, copy)`` pairs, and a label map sends a vertex to
its nonzero label (absent means 0).  The probes take the structure's
level map ``level`` (which holds every tail), its out-sets ``out``, the
owning vertex ``head`` and the height ``H``.

Cost parity: every mutation and probe here is charged by the enclosing
structure at the [PP01] rate the paper charges (``O(log n)`` per edge
touched; Lemmas 4.3/4.4).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator, Mapping, Optional

from .outset import OutSet


class InIndex:
    """Incoming-edge index of one vertex: one sorted slab of in-tails."""

    __slots__ = ("_tails",)

    def __init__(self) -> None:
        self._tails: list[Any] = []

    def add(self, tail: Any) -> None:
        tails = self._tails
        i = bisect_left(tails, tail)
        if i < len(tails) and tails[i] == tail:
            raise AssertionError(f"in-edge from {tail} already filed")
        tails.insert(i, tail)

    def remove(self, tail: Any) -> None:
        tails = self._tails
        i = bisect_left(tails, tail)
        if i >= len(tails) or tails[i] != tail:
            raise AssertionError(f"in-edge from {tail} not filed")
        del tails[i]

    def any_at(
        self,
        tr: int,
        lev: int,
        labels: Mapping[Any, int],
        level: Mapping[Any, int],
        out: Mapping[Any, OutSet],
        head: Any,
        H: int,
    ) -> Optional[Any]:
        """The minimum tail at truncated level ``lev`` whose label is 0 and
        whose arc to ``head`` has truncated rank ``tr``, else None.

        Canonical (content-determined) so rebuilt copies take the same game
        trajectory -- see the module docstring.
        """
        for tail in self._tails:
            w = tail[0]
            lv = level[w]
            if (
                (lv if lv < H else H) == lev
                and w not in labels
                and _truncated_rank(out, tail, head, H) == tr
            ):
                return tail
        return None

    def next_rank(
        self,
        lo: int,
        hi: int,
        lev: int,
        labels: Mapping[Any, int],
        level: Mapping[Any, int],
        out: Mapping[Any, OutSet],
        head: Any,
        H: int,
    ) -> Optional[int]:
        """The least ``tr`` in ``lo..hi`` with
        ``any_at(tr, lev, labels, level, out, head, H)`` not None, else None."""
        best = None
        for tail in self._tails:
            w = tail[0]
            lv = level[w]
            if (lv if lv < H else H) == lev and w not in labels:
                tr = _truncated_rank(out, tail, head, H)
                if lo <= tr <= hi and (best is None or tr < best):
                    if tr == lo:
                        return tr
                    best = tr
        return best

    def any_truncated(
        self, lev: int, level: Mapping[Any, int], out: Mapping[Any, OutSet], head: Any, H: int
    ) -> Optional[Any]:
        """The minimum tail at truncated level ``lev`` whose arc to ``head``
        ranks beyond ``H`` (truncated rank ``H + 1``), else None.

        Used for the ``tr = H + 1`` step of the deletion game; arcs beyond
        rank ``H`` carry label 0 (the paper notes all labels are 0 there),
        so labels are not consulted.
        """
        for tail in self._tails:
            lv = level[tail[0]]
            if (lv if lv < H else H) == lev and _truncated_rank(out, tail, head, H) > H:
                return tail
        return None

    def __contains__(self, tail: Any) -> bool:
        tails = self._tails
        i = bisect_left(tails, tail)
        return i < len(tails) and tails[i] == tail

    def __iter__(self) -> Iterator[Any]:
        """Every filed tail, in order (for checks)."""
        return iter(self._tails)

    def __len__(self) -> int:
        return len(self._tails)


def _truncated_rank(out: Mapping[Any, OutSet], tail: Any, head: Any, H: int) -> int:
    """``min(H + 1, rank)`` of the arc ``(tail[0] -> head, tail[1])``."""
    rank = out[tail[0]].rank((head, tail[1]))
    return rank if rank <= H else H + 1
