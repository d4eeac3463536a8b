"""``BALANCED(H)`` — batch-dynamic H-balanced orientation (Theorem 4.1).

The data structure of Section 4: every vertex keeps a ranked out-edge set
(:class:`~repro.core.outset.OutSet`) and an incoming-edge index
(:class:`~repro.core.inindex.InIndex`), one sorted slab of in-tails.  An
arc's truncated rank is its position in the tail's out-set, its
deletion-game label is its tail's vertex label, and its tail's truncated
level is ``min(H, level[tail])``, so none of the three is stored per arc:
the in-index reads them at probe time.  Batch
insertions run the token-dropping game on token bundles (Section 4.2);
batch deletions run the token-pushing game (Section 4.3).  Between
batches the structure satisfies the H-balancedness invariant of
Definition 3.1::

    for every arc (u -> v):   min(H, d+(u)) <= min(H, d+(v)) + 1

**Multigraph support.**  Arcs are keyed ``(head, copy)``; simple graphs use
``copy = 0`` everywhere, while Corollary 5.4's K-duplicated graphs insert
copies ``0..K-1`` of each undirected edge.  Levels, tokens and balancedness
always refer to *vertices*, exactly as in the paper.

**Levels vs out-set sizes.**  ``self.level[v]`` is the *recorded*
out-degree.  While a token game runs, levels are frozen (the game's whole
point) and ``len(out[v]) - level[v]`` equals the signed token surplus;
settlement reconciles them.  Between batches ``level[v] == len(out[v])``
for every vertex — one of the invariants (DESIGN.md §5, I2) that
``check_invariants`` and ``check_batch_arcs`` verify.

**Cost accounting** matches the paper's lemma granularity: every arc
mutation charges the Lemma 4.3/4.4 rate of ``O(H log n)`` work and depth
(callers parallelise over edges, so per-batch depth is the max); in-index
lookups charge one BST unit; games count phases/rounds into
``cm.counters``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional

from ..config import DEFAULT_CONSTANTS, Constants, check_height
from ..errors import BatchError, InvariantViolation
from ..graphs.graph import Edge, norm_edge
from ..instrument import trace as _trace
from ..instrument.work_depth import CostModel
from . import bundles as _bundles
from . import tokens as _tokens
from .inindex import InIndex
from .levels import is_h_balanced_edge, levkey
from .outset import OutSet

# An arc is (tail, head, copy); an arc key inside an OutSet is (head, copy).
ArcKey = tuple[int, int]


class BalancedOrientation:
    """Deterministic batch-dynamic H-balanced orientation."""

    def __init__(
        self,
        H: int,
        cm: Optional[CostModel] = None,
        constants: Constants = DEFAULT_CONSTANTS,
        n_hint: int = 64,
    ) -> None:
        self.H = check_height(H)
        self.cm = cm if cm is not None else CostModel()
        self.constants = constants
        self.out: dict[int, OutSet] = {}
        self.inx: dict[int, InIndex] = {}
        self.level: dict[int, int] = {}
        # deletion-game label of each vertex, carried by its out-arcs of
        # rank <= H; absent means 0, and no arc is re-filed when it changes
        self.vertex_label: dict[int, int] = {}
        # undirected (min, max, copy) -> current tail
        self.tail_of: dict[tuple[int, int, int], int] = {}
        self._n_hint = max(2, n_hint)
        self._refresh_logn()
        # change journal for Lemma 6.1's D_ins / D_del interfaces
        self.last_reversed: list[tuple[int, int, int]] = []  # (tail, head, copy) post-flip
        self.last_inserted: list[tuple[int, int, int]] = []
        self.last_deleted: list[tuple[int, int, int]] = []
        # vertex -> its truncated level before the last batch first changed it
        self.last_relevelled: dict[int, int] = {}

    # ------------------------------------------------------------------ queries

    def outdegree(self, v: int) -> int:
        """Recorded out-degree (== true out-degree between batches)."""
        return self.level.get(v, 0)

    def max_outdegree(self) -> int:
        return max(self.level.values(), default=0)

    def num_arcs(self) -> int:
        return len(self.tail_of)

    def has_edge(self, u: int, v: int, copy: int = 0) -> bool:
        a, b = norm_edge(u, v)
        return (a, b, copy) in self.tail_of

    def orientation_of(self, u: int, v: int, copy: int = 0) -> tuple[int, int]:
        """Current (tail, head) of the undirected edge ``{u, v}``."""
        a, b = norm_edge(u, v)
        tail = self.tail_of.get((a, b, copy))
        if tail is None:
            raise BatchError(f"edge ({u}, {v}, copy={copy}) not present")
        return (tail, b if tail == a else a)

    def out_neighbors(self, v: int) -> list[int]:
        """Heads of v's out-arcs (with multiplicity), in rank order."""
        outset = self.out.get(v)
        if outset is None:
            return []
        return [head for head, _copy in outset]

    def arcs(self) -> Iterator[tuple[int, int, int]]:
        """All arcs as (tail, head, copy)."""
        for (a, b, copy), tail in self.tail_of.items():
            head = b if tail == a else a
            yield (tail, head, copy)

    # ------------------------------------------------------------------ internals

    def _inx(self, v: int) -> InIndex:
        index = self.inx.get(v)
        if index is None:
            index = InIndex()
            self.inx[v] = index
        return index

    def _rebuild(
        self,
        tail_of: dict[tuple[int, int, int], int],
        level: dict[int, int],
        vertex_label: Optional[dict[int, int]] = None,
    ) -> None:
        """Drop every container and re-file each arc of ``tail_of``.

        The single funnel through which guard rollback, checkpoint restore
        and ``bulk.from_graph`` (re)construct a structure from its logical
        state, at O(m H log n) cost (charged through ``_arc_add``).  Levels
        are seeded before the ``_arc_add`` loop, so every tail already has
        the ``level`` entry that ``logn`` counts and the probes index.
        """
        self.out = {}
        self.inx = {}
        self.tail_of = {}
        self.level = dict(level)
        self.vertex_label = dict(vertex_label) if vertex_label else {}
        self._refresh_logn()
        for (a, b, copy), tail in tail_of.items():
            self._arc_add(tail, b if tail == a else a, copy)

    def _refresh_logn(self) -> None:
        """``logn``: ceil(log2 n) at n = max(n_hint, |level|), the [PP01]
        per-element rate every arc and label charge reads.  It moves only
        with the vertex set, so the places that add vertices (``_arc_add``,
        ``_set_level``) or replace them (``_rebuild``) call this."""
        self.logn = max(1, math.ceil(math.log2(max(self._n_hint, len(self.level)))))

    # -- arc mutations -----------------------------------------------------------
    # Each charges the Lemma 4.3/4.4 per-edge rate, (H + 2) log n work and
    # depth.  A rank shift also charges the paper's re-file of the shifted
    # positions up to H + 1: O(span log n) work at O(log n) depth, as they
    # re-file in parallel.  Both land in one charge call.

    def _arc_add(self, tail: int, head: int, copy: int) -> None:
        """Add arc (tail -> head, copy); does NOT touch levels."""
        outset = self.out.get(tail)
        if outset is None:
            outset = self.out[tail] = OutSet()
        position = outset.add((head, copy))
        self._inx(head).add((tail, copy))
        # ranks of later arcs shifted up by one; the re-file is charged at
        # the logn from before this arc's endpoints join the vertex set
        H, logn = self.H, self.logn
        span = min(H + 1, len(outset)) - position
        work, depth = (span * logn, logn) if span > 0 else (0, 0)
        self.tail_of[(tail, head, copy) if tail < head else (head, tail, copy)] = tail
        level = self.level
        if tail not in level or head not in level:
            level.setdefault(tail, 0)
            level.setdefault(head, 0)
            self._refresh_logn()
        unit = (H + 2) * self.logn
        self.cm.charge(work=work + unit, depth=depth + unit)

    def _arc_remove(self, tail: int, head: int, copy: int) -> None:
        """Remove arc (tail -> head, copy); does NOT touch levels."""
        try:
            outset = self.out[tail]
            self.inx[head].remove((tail, copy))  # in-index first: a miss there changes nothing
            position = outset.remove((head, copy))
        except (KeyError, AssertionError):
            raise InvariantViolation(f"arc {(tail, head, copy)} not in out-set/in-index") from None
        # ranks from the removed position on shifted down by one
        H, logn = self.H, self.logn
        span = min(H + 1, len(outset)) - position + 1
        work, depth = (span * logn, logn) if span > 0 else (0, 0)
        del self.tail_of[(tail, head, copy) if tail < head else (head, tail, copy)]
        unit = (H + 2) * logn
        self.cm.charge(work=work + unit, depth=depth + unit)

    def _flip(self, tail: int, head: int, copy: int) -> None:
        """Reverse arc (tail -> head) to (head -> tail); levels untouched."""
        self._arc_remove(tail, head, copy)
        self._arc_add(head, tail, copy)
        self.last_reversed.append((head, tail, copy))
        self.cm.count("reversals")

    def _set_level(self, v: int, new: int) -> None:
        """Record a new out-degree for ``v``.

        The in-index reads levels at probe time, so nothing moves; a change
        of the truncated level is still charged at the rate of the paper's
        re-file of ``v``'s out-arcs, and journaled in ``last_relevelled``.
        """
        if new < 0:
            raise InvariantViolation(f"negative level for {v}")
        H, level = self.H, self.level
        old = level.get(v)
        level[v] = new
        if old is None:
            old = 0
            self._refresh_logn()
        old_lev = old if old < H else H
        if old_lev != (new if new < H else H):
            self.last_relevelled.setdefault(v, old_lev)
            unit = (H + 2) * self.logn
            self.cm.charge(work=unit, depth=unit)
        else:
            self.cm.charge(work=1, depth=1)

    def _apply_vertex_label(self, v: int, label: int) -> None:
        """Set the deletion-game label of ``v`` (carried by its rank <= H
        out-arcs).

        The in-index reads labels at probe time, so nothing is re-filed;
        the charge is the paper's: relabelling the ``min(H, |out(v)|)``
        arcs in parallel, then the (H+1) log n label-write unit.
        """
        if self.vertex_label.get(v, 0) == label:
            return
        if label:
            self.vertex_label[v] = label
        else:
            self.vertex_label.pop(v, None)
        H, logn = self.H, self.logn
        unit = (H + 1) * logn
        outset = self.out.get(v)
        if outset:
            self.cm.charge(work=min(H, len(outset)) * logn + unit, depth=logn + unit)
        else:
            self.cm.charge(work=unit, depth=unit)

    # ------------------------------------------------------------------ batch API

    def insert_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        """Insert a batch of undirected simple edges (Theorem 4.1, insert)."""
        batch = self._validate_insert(edges, copy=0)
        self._begin_journal()
        self._insert_arcs(batch)

    def delete_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        """Delete a batch of undirected simple edges (Theorem 4.1, delete)."""
        batch = self._validate_delete(edges, copy=0)
        self._begin_journal()
        self._delete_arcs(batch)

    def update_batch(
        self,
        insertions: Iterable[tuple[int, int]] = (),
        deletions: Iterable[tuple[int, int]] = (),
    ) -> None:
        """One mixed batch: deletions apply first, then insertions.

        Deletions are validated against the pre-batch graph and insertions
        against the post-deletion graph, so an edge may be deleted and
        re-inserted within one call.  Each half carries its Theorem 4.1
        worst-case guarantee; the change journals of both halves are
        merged.
        """
        insertions, deletions = list(insertions), list(deletions)
        # the batch envelope itself — validation and journal merge — is
        # O(|insertions| + |deletions|) work even when one half is empty
        self.cm.charge(work=len(insertions) + len(deletions) + 1, depth=1)
        reversed_, inserted, deleted = [], [], []
        relevelled: dict[int, int] = {}
        for half, run in ((deletions, self.delete_batch), (insertions, self.insert_batch)):
            if half:
                run(half)
                reversed_ += self.last_reversed
                inserted += self.last_inserted
                deleted += self.last_deleted
                for v, lev in self.last_relevelled.items():
                    relevelled.setdefault(v, lev)
        self.last_reversed = reversed_
        self.last_inserted = inserted
        self.last_deleted = deleted
        self.last_relevelled = relevelled

    def insert_multi_batch(self, arcs: list[tuple[int, int, int]]) -> None:
        """Insert (u, v, copy) multi-edges — the Corollary 5.4 entry point."""
        seen = set()
        for u, v, copy in arcs:
            a, b = norm_edge(u, v)
            key = (a, b, copy)
            if key in seen or key in self.tail_of:
                raise BatchError(f"multi-edge {key} duplicate or already present")
            seen.add(key)
        self._begin_journal()
        self._insert_arcs([(u, v, copy) for u, v, copy in arcs])

    def delete_multi_batch(self, arcs: list[tuple[int, int, int]]) -> None:
        seen = set()
        for u, v, copy in arcs:
            a, b = norm_edge(u, v)
            key = (a, b, copy)
            if key in seen:
                raise BatchError(f"multi-edge {key} duplicated in batch")
            if key not in self.tail_of:
                raise BatchError(f"multi-edge {key} not present")
            seen.add(key)
        self._begin_journal()
        self._delete_arcs([(u, v, copy) for u, v, copy in arcs])

    def _validate_insert(self, edges: Iterable[tuple[int, int]], copy: int):
        seen: set[Edge] = set()
        batch = []
        for u, v in edges:
            e = norm_edge(u, v)
            if e in seen:
                raise BatchError(f"duplicate edge {e} within batch")
            if (e[0], e[1], copy) in self.tail_of:
                raise BatchError(f"edge {e} already present")
            seen.add(e)
            batch.append((e[0], e[1], copy))
        return batch

    def _validate_delete(self, edges: Iterable[tuple[int, int]], copy: int):
        seen: set[Edge] = set()
        batch = []
        for u, v in edges:
            e = norm_edge(u, v)
            if e in seen:
                raise BatchError(f"duplicate edge {e} within batch")
            if (e[0], e[1], copy) not in self.tail_of:
                raise BatchError(f"edge {e} not present")
            seen.add(e)
            batch.append((e[0], e[1], copy))
        return batch

    def _begin_journal(self) -> None:
        self.last_reversed = []
        self.last_inserted = []
        self.last_deleted = []
        self.last_relevelled = {}

    def journal_vertices(self) -> set[int]:
        """Endpoints of every arc the last batch inserted, deleted or
        reversed: every vertex whose out-set or level it changed."""
        touched: set[int] = set()
        for journal in (self.last_reversed, self.last_inserted, self.last_deleted):
            for tail, head, _copy in journal:
                touched.add(tail)
                touched.add(head)
        return touched

    # -- drivers (Sections 4.2.2 / 4.3.2); game logic lives in tokens.py --------

    def _insert_arcs(self, batch: list[tuple[int, int, int]]) -> None:
        if _trace.ACTIVE is None:
            self._insert_arcs_inner(batch)
            return
        with _trace.span("balanced.insert", detail={"edges": len(batch)}):
            self._insert_arcs_inner(batch)

    def _insert_arcs_inner(self, batch: list[tuple[int, int, int]]) -> None:
        pending = list(batch)
        rounds = 0
        bound = (
            self.constants.bundle_safety * (self.H + 1) ** 2
            + self.constants.convergence_slack
        )
        while pending:
            # edges whose endpoints are both saturated insert freely (§4.2.2)
            level_get = self.level.get
            free = [
                (u, v, c)
                for (u, v, c) in pending
                if min(level_get(u, 0), level_get(v, 0)) >= self.H
            ]
            if free:
                free_keys = set(free)
                with _trace.span("balanced.free"):
                    with self.cm.parallel() as region:
                        for u, v, c in free:
                            with region.branch():
                                tail, head = (
                                    (u, v) if level_get(u, 0) <= level_get(v, 0) else (v, u)
                                )
                                self._arc_add(tail, head, c)
                                self._set_level(tail, self.level.get(tail, 0) + 1)
                                self.last_inserted.append((tail, head, c))
                pending = [e for e in pending if e not in free_keys]
            if not pending:
                break
            rounds += 1
            if rounds > bound:
                raise _convergence(
                    f"bundle extraction exceeded {bound} rounds (Lemma 4.15)"
                )
            bundle = _bundles.extract_token_bundle(self, pending)
            _tokens.run_drop_game(self, bundle)
            self.cm.count("insert_bundle_rounds")
        self.cm.count("insert_batches")

    def _delete_arcs(self, batch: list[tuple[int, int, int]]) -> None:
        if _trace.ACTIVE is None:
            self._delete_arcs_inner(batch)
            return
        with _trace.span("balanced.delete", detail={"edges": len(batch)}):
            self._delete_arcs_inner(batch)

    def _delete_arcs_inner(self, batch: list[tuple[int, int, int]]) -> None:
        # orient every doomed edge
        directed: dict[int, list[tuple[int, int]]] = {}
        for u, v, copy in batch:
            a, b = norm_edge(u, v)
            tail = self.tail_of[(a, b, copy)]
            head = b if tail == a else a
            directed.setdefault(tail, []).append((head, copy))

        # free deletions at saturated tails (§4.3.2): the first
        # d+(tail) - H doomed arcs of each tail leave without tokens.
        tokens: dict[int, int] = {}
        with _trace.span("balanced.free"):
            with self.cm.parallel() as region:
                for tail, heads in sorted(directed.items()):
                    with region.branch():
                        lvl = self.level.get(tail, 0)
                        free_count = min(len(heads), max(0, lvl - self.H))
                        for head, copy in heads[:free_count]:
                            self._arc_remove(tail, head, copy)
                            self._set_level(tail, self.level[tail] - 1)
                            self.last_deleted.append((tail, head, copy))
                        for head, copy in heads[free_count:]:
                            self._arc_remove(tail, head, copy)
                            self.last_deleted.append((tail, head, copy))
                            tokens[tail] = tokens.get(tail, 0) + 1

        for bundle in _bundles.partition_deletion_tokens(tokens):
            _tokens.run_push_game(self, bundle)
            self.cm.count("delete_bundles")
        self.cm.count("delete_batches")

    # ------------------------------------------------------------------ checking

    def check_invariants(self) -> None:
        """The full audit: the between-batch invariants of DESIGN.md §5
        (I2) over every vertex.

        Raises :class:`InvariantViolation` on the first inconsistency.
        O(m log n) time: the recovery manager runs it at checkpoint cadence
        and on every recovery path; between those, :meth:`check_batch`
        audits only what the last batch could have changed.  Both run
        :meth:`_check_vertex`; only the global checks here need a full
        pass: no stray in-index entry, and as many filed entries and
        ``tail_of`` keys as out-arcs.
        """
        if self.vertex_label:
            raise InvariantViolation(f"leftover vertex labels: {self.vertex_label}")
        filed = 0
        for head, index in self.inx.items():
            for tail, copy in index:
                outset = self.out.get(tail)
                if outset is None or (head, copy) not in outset:
                    raise InvariantViolation(f"stray in-index entry {(tail, head, copy)}")
                filed += 1
        for v in self.level.keys() | self.out.keys():
            self._check_vertex(v, arcs=True)
        total_arcs = sum(len(o) for o in self.out.values())
        if filed != total_arcs or filed != len(self.tail_of):
            raise InvariantViolation(
                f"arc counts disagree: filed={filed}, out={total_arcs}, "
                f"tail_of={len(self.tail_of)}"
            )
        for (a, b, copy), tail in self.tail_of.items():
            head = b if tail == a else a
            outset = self.out.get(tail)
            if outset is None or (head, copy) not in outset:
                raise InvariantViolation(f"tail_of says {tail}->{head} but arc missing")

    def check_batch(self, kind: str, edges: Iterable[tuple[int, int]]) -> None:
        """Local verification after one simple-graph batch of ``kind``
        (``"insert"`` or ``"delete"``) over ``edges``; see
        :meth:`check_batch_arcs`."""
        self.check_batch_arcs(kind, [(u, v, 0) for u, v in edges])

    def check_batch_arcs(self, kind: str, arcs: Iterable[tuple[int, int, int]]) -> None:
        """The local audit: the invariants of DESIGN.md §5 (I2) wherever
        the last batch could have broken them (docs/PERFORMANCE.md §8).

        Let T be the endpoints of the journaled arcs and L the vertices of
        T whose truncated level moved.  If every invariant held before the
        batch, these checks cover every place one can now fail:

        * v in T: :meth:`_check_vertex`, with its out-arcs if v is in L;
        * v in L: balance of all in-arcs;
        * every journaled edge, in its current orientation: :meth:`_check_arc`;
        * the batch's ``arcs`` present after an insert, absent after a delete;
        * no leftover vertex labels.

        O(journal length + sum of |L|'s degrees) time; raises
        :class:`InvariantViolation`.
        """
        if self.vertex_label:
            raise InvariantViolation(f"leftover vertex labels: {self.vertex_label}")
        present = kind == "insert"
        for u, v, copy in arcs:
            a, b = norm_edge(u, v)
            if ((a, b, copy) in self.tail_of) != present:
                raise InvariantViolation(
                    f"batch arc {(a, b, copy)} {'missing' if present else 'still present'}"
                    f" after the {kind}"
                )
        H, level = self.H, self.level
        relevelled = {
            v for v, lev in self.last_relevelled.items()
            if levkey(level.get(v, 0), H) != lev
        }
        for v in self.journal_vertices() | relevelled:
            self._check_vertex(v, arcs=v in relevelled)
        for v in relevelled:
            index = self.inx.get(v)
            if index is not None:
                for tail, copy in index:
                    self._check_balanced(tail, v, copy)
        for journal in (self.last_reversed, self.last_inserted, self.last_deleted):
            for u, v, copy in journal:
                a, b = norm_edge(u, v)
                tail = self.tail_of.get((a, b, copy))
                if tail is not None:
                    self._check_arc(tail, b if tail == a else a, copy)

    def _check_vertex(self, v: int, arcs: bool) -> None:
        """``level[v] == |out[v]|``; with ``arcs``, :meth:`_check_arc` on
        each out-arc of ``v``."""
        outset = self.out.get(v)
        size = len(outset) if outset is not None else 0
        if self.level.get(v, 0) != size:
            raise InvariantViolation(f"level[{v}] = {self.level.get(v, 0)} != |out| = {size}")
        if arcs and outset is not None:
            for head, copy in outset:
                self._check_arc(v, head, copy)

    def _check_arc(self, tail: int, head: int, copy: int) -> None:
        """The arc is filed in its head's in-index, and balanced."""
        index = self.inx.get(head)
        if index is None or (tail, copy) not in index:
            raise InvariantViolation(f"arc {(tail, head, copy)} not filed in {head}'s in-index")
        self._check_balanced(tail, head, copy)

    def _check_balanced(self, tail: int, head: int, copy: int) -> None:
        lt, lh = self.level.get(tail, 0), self.level.get(head, 0)
        if not is_h_balanced_edge(lt, lh, self.H):
            raise InvariantViolation(
                f"arc ({tail}->{head},{copy}): min(H,{lt}) > min(H,{lh}) + 1 (H={self.H})"
            )


def _convergence(msg: str):
    from ..errors import ConvergenceError

    return ConvergenceError(msg)
