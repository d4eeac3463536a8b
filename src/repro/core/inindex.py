"""Per-vertex incoming-edge index (Section 4.1).

For each vertex ``v``, each truncated rank ``i in 1..H+1`` and each label
``c in 0..3``, the paper keeps a BST of the incoming edges ``(w -> v)``
with that truncated rank and label, ordered by ``min(H, d+(w))``.  The
only query ever issued is "give me an incoming edge with truncated rank
``i`` and label 0, whose tail sits at truncated level exactly ``L``".
Levels are bounded by ``H`` after truncation, so buckets are exact, not
approximations.

The label of an arc of rank ``<= H`` is always its tail's vertex label
(arcs beyond rank ``H`` carry label 0), so it is not a filing dimension
here: the index is keyed ``(tr, lev)`` only, and the label is read from
the caller's vertex-label map at probe time.  A label flip therefore
re-files nothing; its cost is still charged by the enclosing structure at
the rate of the paper's re-file.  The deletion game can also ask for the
next rank at which a level holds an unlabelled tail
(:meth:`InIndex.next_rank`, one pass over the vertex's buckets) instead
of probing every rank in between.

Each bucket is a sorted slab rather than a hash set, and ``any_at``
answers with the *minimum* unlabelled tail.  The games only need *some*
tail, but the choice must be a pure function of the bucket's contents: a
hash set's iteration order depends on its internal table history, which
checkpoint restore and guard rollback rebuild in a different insertion
order -- and a restored structure must take the same trajectory as the
original to report identical answers and work/depth/counters
(docs/ROBUSTNESS.md).

Tail keys are ``(vertex, copy)`` pairs, and a label map sends a vertex to
its nonzero label (absent means 0).

Cost parity: every mutation here is one dictionary/slab operation, charged
by the enclosing structure at the [PP01] rate the paper charges
(``O(log n)`` per edge touched; Lemmas 4.3/4.4).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator, Mapping, Optional


class InIndex:
    """Incoming-edge index of one vertex, one sorted slab per (tr, lev)."""

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        self._buckets: dict[tuple[int, int], list[Any]] = {}

    def add(self, tail: Any, tr: int, lev: int) -> None:
        bucket = self._buckets.get((tr, lev))
        if bucket is None:
            self._buckets[(tr, lev)] = [tail]
            return
        i = bisect_left(bucket, tail)
        if i < len(bucket) and bucket[i] == tail:
            raise AssertionError(f"in-edge from {tail} already filed at {(tr, lev)}")
        bucket.insert(i, tail)

    def remove(self, tail: Any, tr: int, lev: int) -> None:
        bucket = self._buckets.get((tr, lev))
        if bucket is not None:
            i = bisect_left(bucket, tail)
            if i < len(bucket) and bucket[i] == tail:
                del bucket[i]
                if not bucket:
                    del self._buckets[(tr, lev)]
                return
        raise AssertionError(f"in-edge from {tail} not filed at {(tr, lev)}")

    def move(self, tail: Any, old: tuple[int, int], new: tuple[int, int]) -> None:
        """Re-file one in-edge from ``old`` to ``new`` (both ``(tr, lev)``).

        remove+add inlined: every rank and level shift funnels through it.
        """
        if old == new:
            return
        buckets = self._buckets
        bucket = buckets.get(old)
        if bucket is not None:
            i = bisect_left(bucket, tail)
            if i < len(bucket) and bucket[i] == tail:
                del bucket[i]
                if not bucket:
                    del buckets[old]
            else:
                bucket = None
        if bucket is None:
            raise AssertionError(f"in-edge from {tail} not filed at {old}")
        target = buckets.get(new)
        if target is None:
            buckets[new] = [tail]
            return
        j = bisect_left(target, tail)
        if j < len(target) and target[j] == tail:
            raise AssertionError(f"in-edge from {tail} already filed at {new}")
        target.insert(j, tail)

    def any_at(self, tr: int, lev: int, labels: Mapping[Any, int]) -> Optional[Any]:
        """The minimum tail filed at (tr, lev) whose label is 0, else None.

        Canonical (content-determined) so rebuilt copies take the same game
        trajectory -- see the module docstring.
        """
        bucket = self._buckets.get((tr, lev))
        if bucket is not None:
            for tail in bucket:
                if not labels.get(tail[0]):
                    return tail
        return None

    def next_rank(
        self, lo: int, hi: int, lev: int, labels: Mapping[Any, int]
    ) -> Optional[int]:
        """The least ``tr`` in ``lo..hi`` with ``any_at(tr, lev, labels)``
        not None, else None."""
        best = None
        for (tr, at), bucket in self._buckets.items():
            if at == lev and lo <= tr <= hi and (best is None or tr < best):
                for tail in bucket:
                    if not labels.get(tail[0]):
                        best = tr
                        break
        return best

    def any_truncated(self, tr: int, lev: int) -> Optional[Any]:
        """The minimum tail with truncated rank ``tr`` at level ``lev``.

        Used for the ``tr = H + 1`` step of the deletion game; arcs beyond
        rank ``H`` carry label 0 (the paper notes all labels are 0 there),
        so this is one bucket lookup.
        """
        bucket = self._buckets.get((tr, lev))
        return bucket[0] if bucket else None

    def has(self, tail: Any, tr: int, lev: int) -> bool:
        """Is ``tail`` filed at ``(tr, lev)``?  (for checks)"""
        bucket = self._buckets.get((tr, lev))
        if bucket is None:
            return False
        i = bisect_left(bucket, tail)
        return i < len(bucket) and bucket[i] == tail

    def entries(self) -> Iterator[tuple[Any, int, int]]:
        """Yield (tail, tr, lev) of every filed in-edge (for checks)."""
        for (tr, lev), bucket in self._buckets.items():
            for tail in bucket:
                yield tail, tr, lev

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())
