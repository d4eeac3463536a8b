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
from typing import Any


class OutSet(list):
    """Ordered out-neighbour set of one vertex, on a contiguous slab.

    The slab is the list itself, so ``len``, truth tests and iteration
    are the list's own C slots; only the ranked mutations and the
    membership test (a binary search, not a scan) are Python methods.
    """

    __slots__ = ()

    def __contains__(self, w: Any) -> bool:
        i = bisect_left(self, w)
        return i < len(self) and self[i] == w

    def add(self, w: Any) -> int:
        """Insert the edge to ``w``; returns its 1-indexed rank."""
        i = bisect_left(self, w)
        if i < len(self) and self[i] == w:
            raise AssertionError(f"out-edge to {w} already present")
        self.insert(i, w)
        return i + 1

    def remove(self, w: Any) -> int:  # type: ignore[override]
        """Delete the edge to ``w``; returns the rank it had."""
        i = bisect_left(self, w)
        if i >= len(self) or self[i] != w:
            raise AssertionError(f"out-edge to {w} absent")
        del self[i]
        return i + 1

    def rank(self, w: Any) -> int:
        """1-indexed rank of the edge to ``w`` (must be present)."""
        i = bisect_left(self, w)
        if i >= len(self) or self[i] != w:
            raise AssertionError(f"out-edge to {w} absent")
        return i + 1
