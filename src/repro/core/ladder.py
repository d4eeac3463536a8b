"""Ladder sharding: executor routing, rung-skip filtering, query caching.

The unconditional ladders (Theorems 1.1/1.2) sweep ``O(log n / eps)``
*independent* fixed-H rungs per batch.  This module is the shared layer
both ladder classes mix in:

* **Executor routing** — every batch becomes one :class:`~repro.pram.
  executor.RungTask` per participating rung, handed to
  :meth:`~repro.pram.executor.SerialExecutor.run_structures`, which runs
  them as branches of one cost-model parallel region (bit-identical to
  the historical inline loop).

* **Rung-skip filtering** (opt-in, ``rung_skip=True``) — a rung whose
  hint ``H`` sits provably above what the graph can saturate defers its
  updates instead of processing them.  The certificate is a running
  max-degree upper bound ``deg_bound`` (monotone: inserts raise it,
  deletes leave it stale-high, so it never under-estimates): while
  ``deg_bound < rung.skip_threshold()`` the rung's estimate/verdict is
  known without running it — every coreness estimate stays below ``H``
  (``f(v) <= deg(v)`` in the duplication regime, and ``f(v) < H`` iff
  ``deg(v) < B`` in the sampling regime) and every density verdict is
  "low" (each inner out-degree is bounded by the max degree).  Deferred
  batches queue in arrival order; the first batch that lifts the bound
  past the threshold (or a query that needs the rung's concrete state)
  replays the queue — deterministically identical to never deferring,
  because samplers and bucket assignment hash per edge.  Skips are
  counted on the cost model as ``ladder_rungs_skipped`` (mirrored by the
  batch timer as ``repro_ladder_rungs_skipped_total``).  A batch that is
  effectively empty after normalisation skips every rung outright.

* **Query caching** — per-vertex coreness estimates, the ladder max, and
  the density first-"low" index memoise between batches; a batch
  invalidates exactly the vertices it could have changed (its endpoints
  plus every vertex an executed rung's reversal/insertion/deletion
  journals touched).  A deferred-rung flush clears the caches wholesale
  (journals of intermediate replayed batches are not retained).

Cost-model semantics are frozen in the default configuration: with
filtering off, work/depth/counters are bit-identical to the
pre-sharding inline loops (``repro profile --check`` holds).  Filtering
changes the cost *because that is its point*; its bookkeeping is charged
at O(|batch|) work, O(1) depth per dispatch.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..pram.executor import RungTask, SerialExecutor


class RungOps:
    """Mixin for rung structures: replay a deferred ``(method, edges)`` queue."""

    def apply_ops(self, ops: Iterable[tuple[str, list[tuple[int, int]]]]) -> None:
        """Apply queued batches in arrival order (the defer-replay funnel).

        A single-element queue is exactly one direct batch call, so the
        executor can route *every* update through this one entry point
        without perturbing the cost model.
        """
        for method, edges in ops:
            if method == "insert_batch":
                self.insert_batch(edges)
            elif method == "delete_batch":
                self.delete_batch(edges)
            else:  # pragma: no cover - the ladder only queues batch methods
                raise ValueError(f"unknown deferred rung op {method!r}")


class RungLadder:
    """Mixin for the ladder classes: sharding, filtering, and caching state."""

    #: subclasses that already charge O(|batch|) dispatch work set this True
    #: so filtering bookkeeping is not double-charged.
    _dispatch_precharged = False

    def _init_ladder(self, rung_skip: bool) -> None:
        self.executor = SerialExecutor()
        self.rung_skip = bool(rung_skip)
        #: skip thresholds are pure functions of (H, B, regime), cached at
        #: init so the dispatch loop never recomputes them per batch.
        self._skip_thresholds: list[int] = [
            rung.skip_threshold() for rung in self.rungs
        ]
        #: per-rung deferred (method, edges) queues (filtering only).
        self._pending: list[list[tuple[str, list]]] = [[] for _ in self.rungs]
        #: live[i] — rung i has processed every update so far.
        self._live: list[bool] = [not self.rung_skip] * len(self.rungs)
        #: exact current degrees (filtering only; empty otherwise).
        self._deg: dict[int, int] = {}
        #: monotone upper bound on the max degree ever seen.
        self._deg_bound: int = 0
        # query memo caches (see _invalidate_queries)
        self._est_cache: dict[int, float] = {}
        self._max_est: Optional[float] = None
        self._fl_cache: Optional[int] = None

    # -- dispatch -----------------------------------------------------------

    def _ladder_dispatch(self, method: str, edges: list[tuple[int, int]]) -> None:
        """Route one batch through the executor, deferring filtered rungs."""
        skipped = 0
        tasks: list[RungTask] = []
        executed: list[int] = []
        flushed = False
        if self.rung_skip:
            if not self._dispatch_precharged:
                # filtering bookkeeping: O(|batch|) work, O(1) depth
                self.cm.charge(work=len(edges) + 1, depth=1)
            self._track_degrees(method, edges)
        if self.rung_skip and not edges:
            skipped = len(self.rungs)  # empty effective bundle: nothing to do
        else:
            for i, H in enumerate(self.heights):
                if (
                    self.rung_skip
                    and not self._live[i]
                    and self._deg_bound < self._skip_thresholds[i]
                ):
                    self._pending[i].append((method, edges))
                    skipped += 1
                    continue
                ops: list[tuple[str, list]] = []
                if not self._live[i]:
                    ops.extend(self._pending[i])
                    self._pending[i].clear()
                    self._live[i] = True
                    flushed = True
                ops.append((method, edges))
                tasks.append(
                    RungTask(
                        structure=self.rungs[i],
                        method="apply_ops",
                        args=(ops,),
                        span="ladder.rung",
                        attrs={"H": H},
                    )
                )
                executed.append(i)
        if skipped:
            self.cm.count("ladder_rungs_skipped", skipped)
        if tasks:
            self.executor.run_structures(self.cm, tasks)
        self._invalidate_queries(edges, executed, flushed)

    def _track_degrees(self, method: str, edges: list[tuple[int, int]]) -> None:
        deg = self._deg
        if method == "insert_batch":
            bound = self._deg_bound
            for u, v in edges:
                for x in (u, v):
                    d = deg.get(x, 0) + 1
                    deg[x] = d
                    if d > bound:
                        bound = d
            self._deg_bound = bound
        else:
            # degrees shrink but the bound stays monotone — a stale-high
            # bound is still a sound skip certificate, and monotonicity
            # guarantees each rung flushes at most once, ever.
            for u, v in edges:
                for x in (u, v):
                    d = deg.get(x, 0)
                    if d > 0:
                        deg[x] = d - 1

    # -- deferred-rung flushing --------------------------------------------

    def _flush_rung(self, i: int) -> None:
        """Replay rung ``i``'s deferred queue in place (query materialisation)."""
        if self._live[i]:
            return
        ops = list(self._pending[i])
        self._pending[i].clear()
        self._live[i] = True
        if ops:
            self.rungs[i].apply_ops(ops)
        self._reset_query_caches()

    def flush_all_pending(self) -> None:
        """Bring every deferred rung up to date (checkpoints, audits)."""
        if not self.rung_skip:
            return
        for i in range(len(self.rungs)):  # reprolint: disable=REP-P001
            self._flush_rung(i)

    # -- query cache maintenance -------------------------------------------

    def _reset_query_caches(self) -> None:
        self._est_cache.clear()
        self._max_est = None
        self._fl_cache = None

    def _invalidate_queries(
        self, edges: list[tuple[int, int]], executed: list[int], flushed: bool
    ) -> None:
        """Drop exactly the memoised answers this batch could have changed.

        An estimate can only move when some rung's out-degree at the
        vertex moved, and every out-degree move is either an endpoint of
        the batch or an endpoint of an arc in an executed rung's
        insertion/deletion/reversal journals.  A flush replayed several
        batches whose intermediate journals are gone — clear everything.
        """
        self._max_est = None
        self._fl_cache = None
        if not self._est_cache:
            return
        if flushed:
            self._est_cache.clear()
            return
        dirty: set[int] = set()
        for u, v in edges:
            dirty.add(u)
            dirty.add(v)
        for i in executed:
            journal = getattr(self.rungs[i], "journal_vertices", None)
            if journal is None:  # pragma: no cover - all rungs provide it
                self._est_cache.clear()
                return
            dirty.update(journal())
        for v in dirty:
            self._est_cache.pop(v, None)


__all__ = ["RungLadder", "RungOps"]
