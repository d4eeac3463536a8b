"""Ladder sharding: executor routing and query caching.

The unconditional ladders (Theorems 1.1/1.2) sweep ``O(log n / eps)``
*independent* fixed-H rungs per batch.  This module is the shared layer
both ladder classes mix in:

* **Executor routing** — every batch, empty ones included, becomes one
  :class:`~repro.pram.executor.RungTask` per rung, handed to
  :meth:`~repro.pram.executor.SerialExecutor.run_structures`, which runs
  them as branches of one cost-model parallel region (bit-identical to
  the historical inline loop).  No rung is ever deferred: each batch
  pays its own worst-case work and depth, never a replay of earlier
  batches (docs/PERFORMANCE.md §4).

* **Query caching** — per-vertex coreness estimates, the ladder max, and
  the density first-"low" index memoise between batches; a batch
  invalidates exactly the vertices it could have changed (its endpoints
  plus every vertex a rung's reversal/insertion/deletion journals
  touched).

Cost-model semantics are frozen: work/depth/counters are bit-identical
to the pre-sharding inline loops (``repro run --check`` holds).
"""

from __future__ import annotations

from typing import Optional

from ..pram.executor import RungTask, SerialExecutor


class RungOps:
    """Mixin for rung structures: the one update funnel the executor calls."""

    def apply_ops(self, method: str, edges: list[tuple[int, int]]) -> None:
        """Apply one batch by method name (``insert_batch``/``delete_batch``)."""
        if method == "insert_batch":
            self.insert_batch(edges)
        elif method == "delete_batch":
            self.delete_batch(edges)
        else:  # pragma: no cover - the ladder only dispatches batch methods
            raise ValueError(f"unknown rung op {method!r}")


class RungLadder:
    """Mixin for the ladder classes: sharding and caching state."""

    def _init_ladder(self) -> None:
        self.executor = SerialExecutor()
        # query memo caches (see _invalidate_queries)
        self._est_cache: dict[int, float] = {}
        self._max_est: Optional[float] = None
        self._fl_cache: Optional[int] = None

    # -- dispatch -----------------------------------------------------------

    def _ladder_dispatch(self, method: str, edges: list[tuple[int, int]]) -> None:
        """Route one batch through the executor, one task per rung."""
        tasks = [
            RungTask(
                structure=rung,
                method="apply_ops",
                args=(method, edges),
                span="ladder.rung",
                attrs={"H": H},
            )
            for rung, H in zip(self.rungs, self.heights)
        ]
        self.executor.run_structures(self.cm, tasks)
        self._invalidate_queries(edges)

    # -- invariant checks ---------------------------------------------------

    def check_invariants(self) -> None:
        """The full audit of every rung."""
        for rung in self.rungs:
            rung.check_invariants()

    def check_batch(self, kind: str, edges: list[tuple[int, int]]) -> None:
        """Local check of every rung after one batch (see
        :meth:`~repro.core.balanced.BalancedOrientation.check_batch_arcs`)."""
        for rung in self.rungs:
            rung.check_batch(kind, edges)

    # -- query cache maintenance -------------------------------------------

    def _reset_query_caches(self) -> None:
        self._est_cache.clear()
        self._max_est = None
        self._fl_cache = None

    def _invalidate_queries(self, edges: list[tuple[int, int]]) -> None:
        """Drop exactly the memoised answers this batch could have changed.

        An estimate can only move when some rung's out-degree at the
        vertex moved, and every out-degree move is either an endpoint of
        the batch or an endpoint of an arc in a rung's
        insertion/deletion/reversal journals.
        """
        self._max_est = None
        self._fl_cache = None
        if not self._est_cache:
            return
        dirty: set[int] = set()
        for u, v in edges:
            dirty.add(u)
            dirty.add(v)
        for rung in self.rungs:
            journal = getattr(rung, "journal_vertices", None)
            if journal is None:  # pragma: no cover - all rungs provide it
                self._est_cache.clear()
                return
            dirty.update(journal())
        for v in dirty:
            self._est_cache.pop(v, None)


__all__ = ["RungLadder", "RungOps"]
