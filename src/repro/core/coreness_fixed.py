"""Fixed-height coreness estimator (Theorem 5.1).

Given a height hint ``H`` and accuracy ``eps``, maintains an estimate
``f(v)`` such that w.h.p.:

* if ``f(v) < H``:   ``f(v) in [(1/2 - eps) core(v) - eps H,
  (2 + eps) core(v) + eps H]``
* if ``f(v) >= H``:  ``core(v) >= (1/2 - eps) H``

Two regimes around the threshold ``B = c log n / eps^2``:

* ``H <= B`` — **duplication** (Lemma 5.3 / Corollary 5.4): every edge is
  duplicated ``K = ceil(B / H)`` times and a ``(1+eps) H K``-balanced
  orientation is maintained; ``f(v) = d+(v) / K``.
* ``H > B`` — **sampling** (Appendix A): each edge is kept with probability
  ``p = B / H`` and a ``B``-balanced orientation of the sample is
  maintained; ``f(v) = (H / B) d+(v)``.

The Section 3 lemmas (3.4/3.5) connect the out-degrees of the balanced
orientation to coreness in both regimes.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from ..config import DEFAULT_CONSTANTS, Constants, check_eps, check_height
from ..instrument.work_depth import CostModel
from .balanced import BalancedOrientation
from .duplicated import DuplicatedBalanced
from .ladder import RungOps
from .sampling import EdgeSampler


class FixedHCorenessEstimator(RungOps):
    """Theorem 5.1's data structure for one height hint ``H``."""

    def __init__(
        self,
        H: int,
        eps: float,
        n: int,
        cm: Optional[CostModel] = None,
        constants: Constants = DEFAULT_CONSTANTS,
        seed: int = 0,
    ) -> None:
        self.H = check_height(H)
        self.eps = check_eps(eps)
        self.n = n
        self.constants = constants
        self.B = constants.B(n, eps)
        self.cm = cm if cm is not None else CostModel()

        if self.H <= self.B:
            # duplication regime
            self.K = max(1, math.ceil(self.B / self.H))
            self.K = min(self.K, constants.duplication_cap)
            inner_H = max(1, math.ceil((1 + eps) * self.H * self.K))
            self.regime = "duplication"
            self.dup = DuplicatedBalanced(
                inner_H, self.K, cm=self.cm, constants=constants, n_hint=n,
            )
            self.sampler: Optional[EdgeSampler] = None
            self.bal: Optional[BalancedOrientation] = None
        else:
            # sampling regime
            self.K = 1
            self.regime = "sampling"
            self.dup = None
            self.sampler = EdgeSampler(self.B / self.H, seed=seed ^ 0x5A17)
            self.bal = BalancedOrientation(
                self.B, cm=self.cm, constants=constants, n_hint=n,
            )

    # -- updates ------------------------------------------------------------

    def insert_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        edges = list(edges)
        if self.regime == "duplication":
            self.dup.insert_batch(edges)
        else:
            kept = self.sampler.filter(edges)
            if kept:
                self.bal.insert_batch(kept)
            # unkept edges still cost O(1) each (the sampling decision)
            self.cm.charge(work=len(edges), depth=1)

    def delete_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        edges = list(edges)
        if self.regime == "duplication":
            self.dup.delete_batch(edges)
        else:
            kept = self.sampler.filter(edges)
            if kept:
                self.bal.delete_batch(kept)
            self.cm.charge(work=len(edges), depth=1)

    # -- estimates ------------------------------------------------------------

    def estimate(self, v: int) -> float:
        """The Theorem 5.1 estimate ``f(v)``."""
        if self.regime == "duplication":
            return self.dup.fractional_outdegree(v)
        return (self.H / self.B) * self.bal.outdegree(v)

    def saturated(self, v: int) -> bool:
        """True when ``f(v) >= H`` (only a lower bound on core(v) is known)."""
        return self.estimate(v) >= self.H

    def journal_vertices(self) -> set[int]:
        """Vertices whose out-degree the last batch may have changed.

        Endpoints of every arc the inner orientation inserted, deleted or
        reversed — the exact invalidation set for the ladder's per-vertex
        estimate cache.
        """
        inner = self.dup.inner if self.dup is not None else self.bal
        return inner.journal_vertices()

    def check_batch(self, kind: str, edges: list[tuple[int, int]]) -> None:
        """Local check after one batch (only the sampled edges reach the
        orientation in the sampling regime; an unsampled batch changed
        nothing)."""
        if self.regime == "duplication":
            self.dup.check_batch(kind, edges)
        else:
            kept = self.sampler.filter(edges)
            if kept:
                self.bal.check_batch(kind, kept)

    def check_invariants(self) -> None:
        if self.regime == "duplication":
            self.dup.check_invariants()
        else:
            self.bal.check_invariants()
