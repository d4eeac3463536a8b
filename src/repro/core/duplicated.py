"""``BALANCED(H, K)`` — the K-duplicated structure (Corollary 5.4).

Lemma 5.3: duplicating every edge K times multiplies every coreness by
exactly K, so a ``K*H``-balanced orientation of the duplicated multigraph
estimates ``K * core(v)`` with the *same additive error* ``O(log n / eps)``
— relative to the K-times-larger measure, the error shrinks by K.  That is
how Theorem 5.1 gets a useful estimate for heights below the threshold
``B``.

This wrapper inserts copies ``0..K-1`` of every undirected edge into one
:class:`~repro.core.balanced.BalancedOrientation` (which supports
multi-arcs natively) and exports:

* ``fractional_outdegree(v) = d+(v) / K`` — the estimate feeding Thm 5.1;
* a *majority* simple-graph orientation (each undirected edge points the
  way >= K/2 of its copies point), the Theorem 5.2 device giving max
  out-degree <= 2H from an HK-bounded multigraph orientation.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..config import DEFAULT_CONSTANTS, Constants, check_height
from ..errors import InvariantViolation, ParameterError
from ..graphs.graph import norm_edge
from ..instrument.work_depth import CostModel
from .balanced import BalancedOrientation


class DuplicatedBalanced:
    """K-fold duplicated balanced orientation."""

    def __init__(
        self,
        inner_H: int,
        K: int,
        cm: Optional[CostModel] = None,
        constants: Constants = DEFAULT_CONSTANTS,
        n_hint: int = 64,
    ) -> None:
        if K < 1:
            raise ParameterError(f"K must be >= 1, got {K}")
        if K > constants.duplication_cap:
            raise ParameterError(
                f"K = {K} exceeds duplication_cap = {constants.duplication_cap}; "
                "raise the cap via Constants if this is intentional"
            )
        self.K = K
        self.inner = BalancedOrientation(
            check_height(inner_H), cm=cm, constants=constants, n_hint=n_hint,
        )

    @property
    def cm(self) -> CostModel:
        return self.inner.cm

    # -- updates (one undirected edge = K multigraph copies) ------------------

    def insert_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        arcs = [
            (u, v, c) for (u, v) in (norm_edge(a, b) for a, b in edges)
            for c in range(self.K)
        ]
        self.inner.insert_multi_batch(arcs)

    def delete_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        arcs = [
            (u, v, c) for (u, v) in (norm_edge(a, b) for a, b in edges)
            for c in range(self.K)
        ]
        self.inner.delete_multi_batch(arcs)

    # -- estimates ---------------------------------------------------------------

    def fractional_outdegree(self, v: int) -> float:
        return self.inner.outdegree(v) / self.K

    def has_edge(self, u: int, v: int) -> bool:
        return self.inner.has_edge(u, v, 0)

    def majority_orientation(self, u: int, v: int) -> tuple[int, int]:
        """(tail, head) that at least half the copies agree on."""
        a, b = norm_edge(u, v)
        toward_b = 0
        for c in range(self.K):
            tail, _head = self.inner.orientation_of(a, b, c)
            if tail == a:
                toward_b += 1
        return (a, b) if 2 * toward_b >= self.K else (b, a)

    def majority_out_neighbors(self, v: int) -> list[int]:
        """Out-neighbours of ``v`` under the majority orientation.

        v points at w iff a strict majority of the copies leave v; exact
        ties (possible only for even K — the paper assumes K odd, Lemma
        6.1) break toward the smaller endpoint so that exactly one side
        claims every edge, consistent with :meth:`majority_orientation`.
        """
        counts: dict[int, int] = {}
        for head in self.inner.out_neighbors(v):
            counts[head] = counts.get(head, 0) + 1
        out = []
        for w, c in counts.items():
            if 2 * c > self.K or (2 * c == self.K and v < w):
                out.append(w)
        return out

    def check_batch(self, kind: str, edges: Iterable[tuple[int, int]]) -> None:
        """Local check after one batch: every batch edge has all K copies
        after an insert and none after a delete (see
        :meth:`BalancedOrientation.check_batch_arcs`)."""
        self.inner.check_batch_arcs(
            kind,
            [(u, v, c) for (u, v) in (norm_edge(a, b) for a, b in edges)
             for c in range(self.K)],
        )

    def check_invariants(self) -> None:
        self.inner.check_invariants()
        # every undirected edge has exactly K copies
        per_edge: dict[tuple[int, int], int] = {}
        for (a, b, _copy) in self.inner.tail_of:
            per_edge[(a, b)] = per_edge.get((a, b), 0) + 1
        for e, count in per_edge.items():
            if count != self.K:
                raise InvariantViolation(f"edge {e} has {count} copies, expected {self.K}")
