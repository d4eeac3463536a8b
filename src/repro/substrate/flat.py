"""Flat-array substrate: contiguous bisect-backed ordered sets.

Drop-in replacements for :class:`repro.core.outset.OutSet` and
:class:`repro.core.inindex.InIndex` that store keys in plain sorted
``list`` slabs instead of one treap node per edge.  Rank/select become a
binary search plus an index, insert/delete become a ``memmove`` inside
one contiguous buffer — all C-speed in CPython — and the per-edge object
graph (node, priority, two child pointers) disappears entirely.  For the
out-degrees the ladder ever holds (``<= H + 1`` filed positions per
vertex, small constants at E21/E22 scale) the O(n) shift is far below
the constant factor of pointer-chasing a treap, which is exactly the
trade the exemplar flat k-core engines make.

Semantics are *identical* to the treap substrate, not merely similar:

* iteration, ``first`` and ``window`` enumerate in ascending key order —
  the same total order (tuple ``<``) the treap uses;
* ``rank``/``select`` are 1-indexed with the same bounds behaviour
  (``select`` out of range raises :class:`IndexError`, like
  ``Treap.select``);
* ``any_at`` returns the **minimum** filed tail key, the canonical
  content-determined pick that keeps rebuilt (restored, rolled-back)
  structures and the two substrates on identical game trajectories;
* duplicate adds / missing removes raise ``AssertionError`` with the
  same messages as the treap-backed classes.

No cost-model calls live here — charging is the caller's job (see
``core/balanced.py``), which is why swapping substrates cannot perturb
work/depth/counters.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator, Optional


class FlatOutSet:
    """Ordered out-neighbour set of one vertex, on a contiguous slab."""

    __slots__ = ("_keys",)

    def __init__(self) -> None:
        self._keys: list[Any] = []

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, w: Any) -> bool:
        keys = self._keys
        i = bisect_left(keys, w)
        return i < len(keys) and keys[i] == w

    def add(self, w: Any) -> None:
        keys = self._keys
        i = bisect_left(keys, w)
        if i < len(keys) and keys[i] == w:
            raise AssertionError(f"out-edge to {w} already present")
        keys.insert(i, w)

    def remove(self, w: Any) -> None:
        keys = self._keys
        i = bisect_left(keys, w)
        if i >= len(keys) or keys[i] != w:
            raise AssertionError(f"out-edge to {w} absent")
        del keys[i]

    def rank(self, w: Any) -> int:
        """1-indexed rank of the edge to ``w`` (must be present)."""
        keys = self._keys
        i = bisect_left(keys, w)
        if i >= len(keys) or keys[i] != w:
            raise AssertionError(f"out-edge to {w} absent")
        return i + 1

    def select(self, rank: int) -> Any:
        """Neighbour at 1-indexed ``rank``."""
        if not (1 <= rank <= len(self._keys)):
            raise IndexError(f"select({rank - 1}) on set of size {len(self._keys)}")
        return self._keys[rank - 1]

    def first(self, k: int) -> list[Any]:
        """The first ``min(k, len)`` neighbours in rank order."""
        return self._keys[:k]

    def window(self, lo: int, hi: int) -> list[Any]:
        """Keys at 1-indexed positions ``lo..hi`` inclusive (clamped)."""
        return self._keys[max(0, lo - 1): hi]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._keys)

    def check(self) -> None:
        keys = self._keys
        for i in range(1, len(keys)):
            if not keys[i - 1] < keys[i]:
                raise AssertionError("flat out-set keys out of order")


class FlatInIndex:
    """Incoming-edge index of one vertex, one sorted slab per bucket.

    The treap substrate nests ``(tr, label) -> {lev -> Treap}``; here the
    whole key is flattened to one dict level, ``(tr, label, lev) ->
    sorted list of tail keys``, because the only query the games ever
    issue ("minimum tail at exactly this (tr, label, lev)") is a single
    dict hit plus ``bucket[0]``.
    """

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
        """The minimum tail filed at exactly (tr, label, lev), else None."""
        bucket = self._buckets.get((tr, label, lev))
        if not bucket:
            return None
        return bucket[0]

    def any_truncated(self, tr: int, lev: int) -> Optional[Any]:
        """Any tail with truncated rank ``tr`` at level ``lev``, any label."""
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
