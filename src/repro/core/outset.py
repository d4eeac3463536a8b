"""Per-vertex ranked out-edge set (Definition 4.2).

The *rank* of a directed edge ``(u -> v)`` is the 1-indexed position of
``v`` in the ordered set of ``u``'s out-neighbours; the *truncated rank* is
``min(H + 1, rank)``.  The order itself is immaterial ("the order of
storing edges is not important" — Section 4.1); we order by neighbour id,
which is stable and deterministic.

The set lives in one contiguous sorted ``list`` slab per vertex, the
layout the exemplar flat k-core engines use (SNIPPETS.md).  Rank is a
binary search plus an index and insert/delete a ``memmove`` inside
one buffer, all C-speed in CPython.  For the out-degrees the ladder ever
holds (``<= H + 1`` filed positions per vertex) the O(n) shift is far
below the constant factor of pointer-chasing a per-edge tree.  The cost
model is unaffected: no charging lives here, and the callers charge the
[PP01] rate of O(log n) per element the paper assumes (DESIGN.md,
substitution 2).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator


class OutSet:
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

    def add(self, w: Any) -> int:
        """Insert the edge to ``w``; returns its 1-indexed rank."""
        keys = self._keys
        i = bisect_left(keys, w)
        if i < len(keys) and keys[i] == w:
            raise AssertionError(f"out-edge to {w} already present")
        keys.insert(i, w)
        return i + 1

    def remove(self, w: Any) -> int:
        """Delete the edge to ``w``; returns the rank it had."""
        keys = self._keys
        i = bisect_left(keys, w)
        if i >= len(keys) or keys[i] != w:
            raise AssertionError(f"out-edge to {w} absent")
        del keys[i]
        return i + 1

    def rank(self, w: Any) -> int:
        """1-indexed rank of the edge to ``w`` (must be present)."""
        keys = self._keys
        i = bisect_left(keys, w)
        if i >= len(keys) or keys[i] != w:
            raise AssertionError(f"out-edge to {w} absent")
        return i + 1

    def __iter__(self) -> Iterator[Any]:
        return iter(self._keys)
