"""Per-vertex incoming-edge index (Section 4.1).

For each vertex ``v``, each truncated rank ``i in 1..H+1`` and each label
``c in 0..3``, the paper keeps a BST of the incoming edges ``(w -> v)``
with that truncated rank and label, ordered by ``min(H, d+(w))``.  The
only query ever issued is "give me an incoming edge with truncated rank
``i``, label ``c``, whose tail sits at truncated level exactly ``L``" —
i.e. a lookup of the *minimum-level* element after checking its key, so a
bucketed index (nested dicts: ``(tr, label) -> level -> treap of tails``)
supports the identical access pattern.  Levels are bounded by ``H`` after
truncation, so buckets are exact, not approximations.

Each bucket is a :class:`~repro.pbst.treap.Treap` (the paper's BST) rather
than a hash set, and ``any_at`` answers with the *minimum* filed tail.  The
games only need *some* tail, but the choice must be a pure function of the
bucket's contents: a hash set's iteration order depends on its internal
table history, which checkpoint restore and guard rollback rebuild in a
different insertion order -- and a restored structure must take the same
trajectory as the original to report identical answers and
work/depth/counters (docs/ROBUSTNESS.md).  The flat substrate answers with
the same minimum, so the two substrates agree too.  Treaps are
history-independent (one shape per key set, priorities derived from keys),
so the pick is canonical.

Cost parity: every mutation here is one dictionary/treap operation, charged
by the enclosing structure at the [PP01] rate the paper charges
(``O(log n)`` per edge touched; Lemmas 4.3/4.4).
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..pbst.treap import Treap


class InIndex:
    """Incoming-edge index of one vertex."""

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        # (tr, label) -> { levkey -> Treap(tails) }
        self._buckets: dict[tuple[int, int], dict[int, Treap]] = {}

    def add(self, tail: int, tr: int, label: int, lev: int) -> None:
        by_level = self._buckets.setdefault((tr, label), {})
        bucket = by_level.setdefault(lev, Treap())
        if not bucket.insert(tail):
            raise AssertionError(f"in-edge from {tail} already filed at {(tr, label, lev)}")

    def remove(self, tail: int, tr: int, label: int, lev: int) -> None:
        by_level = self._buckets.get((tr, label))
        bucket = by_level.get(lev) if by_level else None
        if bucket is None or not bucket.delete(tail):
            raise AssertionError(
                f"in-edge from {tail} not filed at {(tr, label, lev)}"
            )
        if not bucket:
            del by_level[lev]
        if not by_level:
            del self._buckets[(tr, label)]

    def move(
        self,
        tail: int,
        old: tuple[int, int, int],
        new: tuple[int, int, int],
    ) -> None:
        """Re-file one in-edge under new (tr, label, lev)."""
        if old == new:
            return
        self.remove(tail, *old)
        self.add(tail, *new)

    def any_at(self, tr: int, label: int, lev: int) -> Optional[int]:
        """The minimum tail filed at exactly (tr, label, lev), else None.

        Canonical (content-determined) so rebuilt copies take the same game
        trajectory -- see the module docstring.
        """
        by_level = self._buckets.get((tr, label))
        if not by_level:
            return None
        bucket = by_level.get(lev)
        if not bucket:
            return None
        return bucket.min()

    def any_truncated(self, tr: int, lev: int) -> Optional[int]:
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

    def entries(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield (tail, tr, label, lev) of every filed in-edge (for checks)."""
        for (tr, label), by_level in self._buckets.items():
            for lev, bucket in by_level.items():
                for tail in bucket:
                    yield tail, tr, label, lev

    def __len__(self) -> int:
        return sum(
            len(bucket)
            for by_level in self._buckets.values()
            for bucket in by_level.values()
        )
