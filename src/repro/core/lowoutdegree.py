"""``LOWOUTDEGREE(H, eps)`` — the application-facing interface (Lemma 6.1).

Wraps a fixed-height density guard (Theorem 5.2) and additionally maintains
the three hash tables the applications of Section 6 consume:

* ``D_out(v)`` — the out-neighbour set of every vertex under the exported
  orientation (kept incrementally, O(1) access);
* ``D_ins`` / ``D_del`` — after each batch, the set of undirected edges
  whose exported orientation may have changed, with the new orientation.

The guard's journals (arcs reversed/inserted/deleted inside the balanced
structures) bound the size of these tables by the structures' work, exactly
as the lemma states.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..config import DEFAULT_CONSTANTS, Constants
from ..errors import BatchError
from ..graphs.graph import norm_edge
from ..hashtable.batch_table import BatchHashTable
from ..instrument.work_depth import CostModel
from .density_fixed import FixedHDensityGuard, Verdict


class LowOutDegree:
    """Low out-degree orientation with change-notification tables."""

    def __init__(
        self,
        H: int,
        eps: float,
        n: int,
        cm: Optional[CostModel] = None,
        constants: Constants = DEFAULT_CONSTANTS,
        seed: int = 0,
    ) -> None:
        self.cm = cm if cm is not None else CostModel()
        # the guard's bucket sweep is this structure's parallel hot path;
        # the executor routes it (docs/PERFORMANCE.md)
        self.guard = FixedHDensityGuard(
            H, eps, n, cm=self.cm, constants=constants, seed=seed,
        )
        # exported orientation mirror: edge -> tail, vertex -> set of heads
        self._tail: dict[tuple[int, int], int] = {}
        self._out: dict[int, set[int]] = {}
        # change tables of the last batch
        self.d_ins = BatchHashTable(cm=self.cm)
        self.d_del = BatchHashTable(cm=self.cm)

    # -- updates ----------------------------------------------------------------

    def insert_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        edges = [norm_edge(u, v) for u, v in edges]
        self.guard.insert_batch(edges)
        self.d_ins = BatchHashTable(cm=self.cm)
        self.d_del = BatchHashTable(cm=self.cm)
        self._sync_changed(self.guard.changed_edges, self.d_ins)

    def delete_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        edges = [norm_edge(u, v) for u, v in edges]
        self.guard.delete_batch(edges)
        self.d_ins = BatchHashTable(cm=self.cm)
        self.d_del = BatchHashTable(cm=self.cm)
        self._sync_changed(self.guard.changed_edges, self.d_del)

    def _sync_changed(self, changed: set[tuple[int, int]], table: BatchHashTable) -> None:
        """Reconcile the exported mirror for every possibly-changed edge."""
        # mirror maintenance: O(|changed|) work at O(1) depth per edge
        self.cm.charge(work=len(changed) + 1, depth=1)
        updates = []
        for a, b in sorted(changed):
            old_tail = self._tail.get((a, b))
            try:
                new_tail, new_head = self.guard.orientation_of(a, b)
                present = True
            except BatchError:
                present = False  # the edge was deleted this batch
            if present:
                if old_tail != new_tail:
                    if old_tail is not None:
                        old_head = b if old_tail == a else a
                        self._out.get(old_tail, set()).discard(old_head)
                    self._tail[(a, b)] = new_tail
                    self._out.setdefault(new_tail, set()).add(new_head)
                    updates.append(((a, b), (new_tail, new_head)))
            else:
                if old_tail is not None:
                    old_head = b if old_tail == a else a
                    self._out.get(old_tail, set()).discard(old_head)
                    del self._tail[(a, b)]
                    updates.append(((a, b), None))
        table.batch_set(updates)

    # -- interfaces of Lemma 6.1 ----------------------------------------------------

    def verdict(self) -> Verdict:
        return self.guard.verdict()

    def guarantees_low(self) -> bool:
        return self.guard.guarantees_low()

    def d_out(self, v: int) -> set[int]:
        """The out-neighbour hash table of ``v`` (O(1) access)."""
        return self._out.get(v, set())

    def orientation_of(self, u: int, v: int) -> tuple[int, int]:
        a, b = norm_edge(u, v)
        tail = self._tail[(a, b)]
        return (tail, b if tail == a else a)

    def max_outdegree(self) -> int:
        return max((len(s) for s in self._out.values()), default=0)

    def check_invariants(self) -> None:
        self.guard.check_invariants()
        # mirror agrees with the guard's exported orientation
        for (a, b), tail in self._tail.items():
            g_tail, _g_head = self.guard.orientation_of(a, b)
            if g_tail != tail:
                from ..errors import InvariantViolation

                raise InvariantViolation(
                    f"export mirror stale for edge {(a, b)}: {tail} vs {g_tail}"
                )
        count = sum(len(s) for s in self._out.values())
        if count != len(self._tail):
            from ..errors import InvariantViolation

            raise InvariantViolation("out-mirror and tail-mirror disagree")
