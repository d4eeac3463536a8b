"""Unconditional coreness decomposition (Theorem 1.1).

Runs the fixed-height estimator of Theorem 5.1 for every rung of the
geometric ladder ``H_i = (1 + eps)^i`` and reads off, per vertex, the first
rung whose estimate drops below its hint.  The sandwich

    core(v) >= (1/2 - O(eps)) (1+eps)^k      (rung k-1 was saturated)
    core(v) <= (2 + O(eps)) (1+eps)^k        (rung k is not)

gives the ``4 + eps``-approximation
``core_ALG(v) in [(1/2 - eps) core(v), (2 + eps) core(v)]`` w.h.p.

Every batch sweeps every rung as one cost-model parallel region;
queries binary-search the saturation-monotone ladder and memoise per
vertex (see :mod:`repro.core.ladder` and docs/PERFORMANCE.md).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..config import DEFAULT_CONSTANTS, Constants, check_eps, ladder_heights
from ..instrument.work_depth import CostModel
from .coreness_fixed import FixedHCorenessEstimator
from .ladder import RungLadder


class CorenessDecomposition(RungLadder):
    """Batch-dynamic ``(4 + eps)``-approximate coreness for all vertices."""

    def __init__(
        self,
        n: int,
        eps: float = DEFAULT_CONSTANTS.ladder_base_eps,
        cm: Optional[CostModel] = None,
        constants: Constants = DEFAULT_CONSTANTS,
        seed: int = 0,
        h_max: Optional[int] = None,
    ) -> None:
        self.n = n
        self.eps = check_eps(eps)
        self.cm = cm if cm is not None else CostModel()
        self.constants = constants
        self.seed = seed
        self.h_max = h_max
        self.heights: list[int] = ladder_heights(n, eps, h_max)
        self.rungs: list[FixedHCorenessEstimator] = [
            FixedHCorenessEstimator(
                H, eps, n, cm=self.cm, constants=constants, seed=seed + 31 * i,
            )
            for i, H in enumerate(self.heights)
        ]
        self._touched: set[int] = set()
        self._init_ladder()

    # -- updates (the rungs are independent — the parallel ladder) -------------

    def insert_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        edges = list(edges)
        # ladder dispatch + touched-set bookkeeping: O(|batch|) work, O(1) depth
        self.cm.charge(work=len(edges) + 1, depth=1)
        for u, v in edges:
            self._touched.add(u)
            self._touched.add(v)
        self._ladder_dispatch("insert_batch", edges)

    def delete_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        edges = list(edges)
        self.cm.charge(work=len(edges) + 1, depth=1)
        self._ladder_dispatch("delete_batch", edges)

    def update_batch(self, insertions=(), deletions=()) -> None:
        """One mixed batch: deletions first, then insertions."""
        deletions, insertions = list(deletions), list(insertions)
        if deletions:
            self.delete_batch(deletions)
        if insertions:
            self.insert_batch(insertions)

    # -- queries ---------------------------------------------------------------

    def _rung_unsaturated(self, i: int, v: int) -> bool:
        """Is rung ``i`` unsaturated at ``v``?"""
        self.cm.tick()  # one rung probe (queries are charged per probe)
        return self.rungs[i].estimate(v) < self.heights[i]

    def _compute_estimate(self, v: int) -> float:
        """Binary-search the first unsaturated rung (saturation-monotone).

        Rung saturation is monotone down the ladder — a vertex saturating
        height ``H`` saturates every smaller hint w.h.p. — so the linear
        first-unsaturated scan is a predicate flip the search finds with
        O(log #rungs) rung probes instead of O(#rungs).
        """
        hi = len(self.rungs) - 1
        if not self._rung_unsaturated(hi, v):
            return float(self.heights[-1])
        lo = 0
        while lo < hi:
            mid = (lo + hi) // 2
            if self._rung_unsaturated(mid, v):
                hi = mid
            else:
                lo = mid + 1
        return float(self.heights[lo])

    def estimate(self, v: int) -> float:
        """``core_ALG(v)``: the first unsaturated rung's height (memoised)."""
        cached = self._est_cache.get(v)
        if cached is not None:
            return cached
        value = self._compute_estimate(v)
        self._est_cache[v] = value
        return value

    def estimates(self, vertices: Optional[Sequence[int]] = None) -> dict[int, float]:
        vs = list(vertices) if vertices is not None else sorted(self._touched)
        return {v: self.estimate(v) for v in vs}

    def max_estimate(self) -> float:
        if self._max_est is None:
            self._max_est = max(
                (self.estimate(v) for v in self._touched),
                default=float(self.heights[0]),
            )
        return self._max_est
