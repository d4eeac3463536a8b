"""Batch-dynamic maximal matching (Corollary 1.3).

Maintains a maximal matching of a graph whose density is promised to stay
below ``rho_max``, on top of ``LOWOUTDEGREE`` (Lemma 6.1).  The structures
mirror the paper's:

* ``mate`` — the matching (``D_match``/``D_used`` folded into one map);
* ``D_incoming(v)`` — the *unmatched* in-neighbours of ``v`` under the
  maintained orientation.

A free vertex can scan all its potential partners in
``O(rho_max + |D_incoming|)``: out-neighbours come from ``D_out`` (at most
``(2+eps) rho_max``), in-neighbours from ``D_incoming``.  After each batch
the freed/new vertices are re-matched with rounds of parallel proposals
(each target accepts one — CRCW arbitrary write), which terminates because
every accepted proposal matches two vertices permanently for the round.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..config import DEFAULT_CONSTANTS, Constants
from ..errors import CapacityError
from ..graphs.graph import norm_edge
from ..instrument.work_depth import CostModel
from ..core.lowoutdegree import LowOutDegree
from ..pram.primitives import arbitrary_winners
from ..pram.sorting import parallel_sort


class MaximalMatching:
    """Maximal matching under a density promise ``rho_max``."""

    def __init__(
        self,
        rho_max: int,
        n: int,
        eps: float = 0.3,
        cm: Optional[CostModel] = None,
        constants: Constants = DEFAULT_CONSTANTS,
        seed: int = 0,
    ) -> None:
        self.rho_max = max(1, rho_max)
        self.cm = cm if cm is not None else CostModel()
        H = max(1, int(round(1.1 * self.rho_max)))
        self.lod = LowOutDegree(H, eps, n, cm=self.cm, constants=constants, seed=seed)
        self.mate: dict[int, int] = {}
        self.edges: set[tuple[int, int]] = set()
        self.d_incoming: dict[int, set[int]] = {}

    # -- queries -------------------------------------------------------------

    def matching(self) -> set[tuple[int, int]]:
        return {norm_edge(u, v) for u, v in self.mate.items() if u < v}

    # -- updates -------------------------------------------------------------

    def insert_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        batch = [norm_edge(u, v) for u, v in edges]
        self.lod.insert_batch(batch)
        self._check_promise()
        self.edges.update(batch)
        self._apply_orientation_changes(self.lod.d_ins)
        dirty = {v for e in batch for v in e if v not in self.mate}
        self._rematch(dirty)

    def delete_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        batch = [norm_edge(u, v) for u, v in edges]
        self.lod.delete_batch(batch)
        self.edges.difference_update(batch)
        freed: set[int] = set()
        for u, v in batch:
            if self.mate.get(u) == v:
                del self.mate[u]
                del self.mate[v]
                freed.add(u)
                freed.add(v)
        self._apply_orientation_changes(self.lod.d_del)
        # purge deleted edges from D_incoming directly: the change table
        # covers edges the substrate re-oriented, but the index must drop
        # a deleted edge even if no change record mentions it
        for u, v in batch:
            self.d_incoming.get(u, set()).discard(v)
            self.d_incoming.get(v, set()).discard(u)
            self.cm.charge(work=1, depth=1)
        # freed vertices become visible as unmatched in-neighbours again
        for v in freed:
            self._broadcast_status(v)
        self._rematch(freed)

    def _check_promise(self) -> None:
        if not self.lod.guarantees_low():
            raise CapacityError(
                f"graph density exceeded the promised rho_max = {self.rho_max}"
            )

    # -- D_incoming maintenance ------------------------------------------------

    def _apply_orientation_changes(self, table) -> None:
        """React to D_ins/D_del: re-index unmatched in-neighbour sets."""
        for (a, b), orient in table.items():
            # remove both possible stale directions
            self.d_incoming.get(b, set()).discard(a)
            self.d_incoming.get(a, set()).discard(b)
            if orient is not None:
                tail, head = orient
                if tail not in self.mate:
                    self.d_incoming.setdefault(head, set()).add(tail)
            self.cm.charge(work=1, depth=1)

    def _broadcast_status(self, v: int) -> None:
        """Tell v's out-neighbours whether v is available (O(rho_max))."""
        available = v not in self.mate
        for w in self.lod.d_out(v):
            if available:
                self.d_incoming.setdefault(w, set()).add(v)
            else:
                self.d_incoming.get(w, set()).discard(v)
            self.cm.charge(work=1, depth=1)

    # -- re-matching rounds --------------------------------------------------------

    def _candidates(self, v: int) -> list[int]:
        d_out = self.lod.d_out(v)
        out = [
            w
            for w in d_out
            if w not in self.mate and norm_edge(v, w) in self.edges
        ]
        # D_incoming is an index, not ground truth: an entry can outlive
        # its edge (an exception or injected fault between the substrate
        # update and the re-index).  Never propose over a dead edge.
        inc = [
            u
            for u in self.d_incoming.get(v, ())
            if u not in self.mate and norm_edge(u, v) in self.edges
        ]
        self.cm.charge(work=len(d_out) + len(inc) + 1, depth=1)
        return sorted(set(out) | set(inc))

    def _rematch(self, dirty: set[int]) -> None:
        frontier = {v for v in dirty if v not in self.mate}
        while frontier:
            proposed: list[tuple[int, int]] = []
            with self.cm.parallel() as region:
                for v in sorted(frontier):
                    if v in self.mate:
                        continue
                    with region.branch():
                        cands = self._candidates(v)
                        if cands:
                            proposed.append((cands[0], v))
            if not proposed:
                break
            # CRCW arbitrary-write round: sort first so the winner per
            # target is canonical (Lemma 4.14/4.16 discipline).
            proposals = arbitrary_winners(
                parallel_sort(proposed, cm=self.cm), cm=self.cm
            )
            matched_now: set[int] = set()
            for target in sorted(proposals):
                v = proposals[target]
                if target in self.mate or v in self.mate:
                    continue
                self.mate[v] = target
                self.mate[target] = v
                matched_now.add(v)
                matched_now.add(target)
                self.cm.charge(work=1, depth=1)
            for v in matched_now:
                self._broadcast_status(v)
            frontier = {v for v in frontier if v not in self.mate}
            frontier.update(
                t for t in proposals if t not in self.mate and t not in matched_now
            )

    # -- verification -----------------------------------------------------------------

    def check_matching(self) -> None:
        """Validity + maximality against the live edge set (test helper)."""
        from ..errors import InvariantViolation

        for u, v in self.mate.items():
            if self.mate.get(v) != u:
                raise InvariantViolation(f"asymmetric mate entry {u}->{v}")
            if norm_edge(u, v) not in self.edges:
                raise InvariantViolation(f"matched edge {(u, v)} not in graph")
        for u, v in self.edges:
            if u not in self.mate and v not in self.mate:
                raise InvariantViolation(f"edge {(u, v)} violates maximality")
