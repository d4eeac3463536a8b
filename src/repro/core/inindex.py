"""Per-vertex incoming-edge index (Section 4.1).

For each vertex ``v``, each truncated rank ``i in 1..H+1`` and each label
``c in 0..3``, the paper keeps a BST of the incoming edges ``(w -> v)``
with that truncated rank and label, ordered by ``min(H, d+(w))``.  The
only query ever issued is "give me an incoming edge with truncated rank
``i``, label ``c``, whose tail sits at truncated level exactly ``L``" —
so the whole key is flattened to one dict level, ``(tr, label, lev) ->
sorted list of tail keys``, and the query is a single dict hit plus
``bucket[0]``.  Levels are bounded by ``H`` after truncation, so buckets
are exact, not approximations.

Each bucket is a sorted slab rather than a hash set, and ``any_at``
answers with the *minimum* filed tail.  The games only need *some* tail,
but the choice must be a pure function of the bucket's contents: a hash
set's iteration order depends on its internal table history, which
checkpoint restore and guard rollback rebuild in a different insertion
order -- and a restored structure must take the same trajectory as the
original to report identical answers and work/depth/counters
(docs/ROBUSTNESS.md).

Cost parity: every mutation here is one dictionary/slab operation, charged
by the enclosing structure at the [PP01] rate the paper charges
(``O(log n)`` per edge touched; Lemmas 4.3/4.4).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator, Optional


class InIndex:
    """Incoming-edge index of one vertex, one sorted slab per bucket."""

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        self._buckets: dict[tuple[int, int, int], list[Any]] = {}

    def add(self, tail: Any, tr: int, label: int, lev: int) -> None:
        bucket = self._buckets.get((tr, label, lev))
        if bucket is None:
            self._buckets[(tr, label, lev)] = [tail]
            return
        i = bisect_left(bucket, tail)
        if i < len(bucket) and bucket[i] == tail:
            raise AssertionError(f"in-edge from {tail} already filed at {(tr, label, lev)}")
        bucket.insert(i, tail)

    def remove(self, tail: Any, tr: int, label: int, lev: int) -> None:
        bucket = self._buckets.get((tr, label, lev))
        if bucket is not None:
            i = bisect_left(bucket, tail)
            if i < len(bucket) and bucket[i] == tail:
                del bucket[i]
                if not bucket:
                    del self._buckets[(tr, label, lev)]
                return
        raise AssertionError(
            f"in-edge from {tail} not filed at {(tr, label, lev)}"
        )

    def move(
        self,
        tail: Any,
        old: tuple[int, int, int],
        new: tuple[int, int, int],
    ) -> None:
        """Re-file one in-edge under new (tr, label, lev).

        remove+add inlined: this is the single hottest call in a rung
        batch (every rank/label/level shift funnels through it).
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

    def any_at(self, tr: int, label: int, lev: int) -> Optional[Any]:
        """The minimum tail filed at exactly (tr, label, lev), else None.

        Canonical (content-determined) so rebuilt copies take the same game
        trajectory -- see the module docstring.
        """
        bucket = self._buckets.get((tr, label, lev))
        if not bucket:
            return None
        return bucket[0]

    def any_truncated(self, tr: int, lev: int) -> Optional[Any]:
        """Any tail with truncated rank ``tr`` at level ``lev``, any label.

        Used for the ``tr = H + 1`` step of the deletion game, where the
        paper notes all labels are 0 anyway; scanning the 4 label values is
        O(1).
        """
        for label in range(4):
            tail = self.any_at(tr, label, lev)
            if tail is not None:
                return tail
        return None

    def entries(self) -> Iterator[tuple[Any, int, int, int]]:
        """Yield (tail, tr, label, lev) of every filed in-edge (for checks)."""
        for (tr, label, lev), bucket in self._buckets.items():
            for tail in bucket:
                yield tail, tr, label, lev

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())
