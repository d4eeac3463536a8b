"""Tiered recovery manager — rollback, checkpoint replay, full rebuild.

The :class:`RecoveryManager` wraps the dynamic structures one batch
stream drives (``BalancedOrientation``, ``CorenessDecomposition``,
``DensityEstimator``) and applies every batch to all of them as one
unit through an escalation ladder, cheapest remedy first:

* **tier 1 — rollback.**  Each structure applies the batch inside its own
  :func:`~repro.resilience.guard.guarded` region, nested in the previous
  one, so any exception (an injected fault, a
  :class:`~repro.errors.ConvergenceError`, a half-applied token game)
  rolls back every structure the attempt entered: a batch commits to all
  structures or to none.  It is retried once on the restored state.
* **tier 2 — checkpoint + suffix replay.**  If the rolled-back state
  itself is unhealthy, or the retry fails again, the manager restores the
  last in-memory checkpoint and replays the batches committed since.
* **tier 3 — full rebuild.**  As a last resort the structures are rebuilt
  from the one ground-truth :class:`~repro.graphs.graph.DynamicGraph`
  (``core/bulk.py`` for a single orientation; fresh construction plus
  chunked re-insertion for the ladders).

If every tier fails, :class:`~repro.errors.RecoveryError` propagates.
Each batch's outcome ("ok", "rollback", "checkpoint", "rebuild") is
recorded in a :class:`~repro.instrument.metrics.RecoveryStats` scoreboard
and counted on the cost model, and silent corruption (a fault that
*mutated* rather than raised) is caught by a post-commit health audit
that triggers the same tier-2/tier-3 repair: the full audit every
``audit_every``-th batch and before every checkpoint capture, and on the
other batches a local audit of the region the batch could have changed
(docs/ROBUSTNESS.md §4).

Everything here is in-memory: the manager keeps only the batches
committed since its last checkpoint.  Durable restart (write-ahead log
plus on-disk checkpoint) belongs to the service's
:class:`~repro.service.state.TenantShard`.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.balanced import BalancedOrientation
from ..verify.audits import AuditReport, audit_invariants, audit_orientation
from ..errors import BatchError, RecoveryError
from ..graphs.graph import DynamicGraph, normalize_batch
from ..graphs.streams import BatchOp, replay
from ..instrument import trace as _trace
from ..instrument.metrics import RecoveryStats
from .guard import capture, guarded, rollback

MAX_RECOVERY_ROUNDS = 3  # full escalation passes before RecoveryError
MAX_REBUILD_ATTEMPTS = 3  # tier-3 rebuild attempts per pass
REBUILD_CHUNK = 128  # edges per re-insertion batch of a ladder rebuild


class RecoveryManager:
    """Apply batches to ``structures`` (sharing one cost model, ground-truth
    graph, history and checkpoint) with the rollback → checkpoint → rebuild
    ladder."""

    def __init__(
        self,
        *structures: Any,
        checkpoint_every: int = 16,
        audit_every: int = 1,
        graph: Optional[DynamicGraph] = None,
    ) -> None:
        self.structures = structures
        self.cm = structures[0].cm
        self.graph = graph if graph is not None else DynamicGraph(0)
        #: batches committed since the last checkpoint — what tier 2 replays.
        self.history: list[BatchOp] = []
        #: batches committed through this manager.
        self.applied = 0
        self.checkpoint_every = max(1, checkpoint_every)
        self.audit_every = audit_every
        self.stats = RecoveryStats()
        self._ckpt = [capture(st) for st in structures]
        #: ``applied`` at the last full audit the structures passed.
        self.audited = 0
        if not self.healthy():
            raise BatchError(
                "RecoveryManager: structures and ground-truth graph disagree "
                "at construction"
            )

    # -- the public entry point ------------------------------------------------

    def apply(self, op: BatchOp) -> str:
        """Apply one batch, recovering from failures; returns the outcome tier.

        Invalid batches (duplicate edges, inserting a live edge, deleting
        an absent one) raise :class:`~repro.errors.BatchError` without
        touching any structure — that is caller error, not a fault.
        """
        self._validate(op)
        with _trace.span("recovery.apply", detail={"kind": op.kind, "edges": op.size}):
            outcome = "ok"
            exc = self._try(op)
            if exc is not None:
                _trace.event(
                    "recovery.escalate",
                    tier="rollback",
                    batch=self.applied,
                    error=type(exc).__name__,
                )
                outcome = self._recover_and_retry(op, exc)
            self._commit(op)
            if self.audit_every:
                # the full audit runs at its cadence and before every
                # in-memory checkpoint; the other batches audit only the
                # region they could have changed (docs/ROBUSTNESS.md).
                full = (
                    self.applied % self.audit_every == 0
                    or len(self.history) >= self.checkpoint_every
                )
                if not (self.healthy() if full else self.healthy(op)):
                    _trace.event(
                        "recovery.escalate",
                        tier="post-commit-audit",
                        batch=self.applied,
                    )
                    outcome = self._repair_in_place()
                    full = True  # the repair ends on a passed full audit
                if full:
                    self.audited = self.applied
        self.stats.record(outcome)
        _trace.event("recovery.outcome", outcome=outcome, batch=self.applied)
        if outcome != "ok":
            self.cm.count(f"recovery_{outcome}")
        if len(self.history) >= self.checkpoint_every:
            self._ckpt = [capture(st) for st in self.structures]
            # tier 2 replays only the post-checkpoint suffix, so memory
            # stays window-sized however long the stream (E23).
            self.history.clear()
        return outcome

    # -- health ------------------------------------------------------------------

    def healthy(self, op: Optional[BatchOp] = None) -> bool:
        """Every structure's invariants hold (and an orientation's edge set
        matches the ground truth).

        Without ``op`` this is the full O(m log n) audit, :meth:`audit`.
        With the batch ``op`` just committed, only the region that batch
        could have changed is checked (each structure's ``check_batch``; an
        orientation's size against the ground truth): O(batch) vertices
        and their arcs, assuming the state passed the previous audit.
        Neither form charges the cost model.
        """
        if op is None:
            return self.audit().ok
        edges = normalize_batch(op.edges)
        for st in self.structures:
            try:
                st.check_batch(op.kind, edges)
            except Exception:
                return False
            if isinstance(st, BalancedOrientation) and len(st.tail_of) != len(self.graph.edges):
                return False
        return True

    def certify(self) -> str:
        """Make sure the committed state passed a full audit; returns
        ``"ok"`` or the tier that repaired it.

        Free when the last batch already ran the full audit.  Callers that
        persist the state (a durable checkpoint) call this first, so a
        corruption the local audits have not reached yet is never written.
        """
        outcome = "ok"
        if self.audited != self.applied:
            if not self.healthy():
                _trace.event(
                    "recovery.escalate", tier="pre-persist-audit", batch=self.applied
                )
                outcome = self._repair_in_place()
                self.cm.count(f"recovery_{outcome}")
            self.audited = self.applied
        return outcome

    def audit(self) -> AuditReport:
        """A full audit of every managed structure against the ground truth."""
        report, *others = [self._audit_one(st) for st in self.structures]
        for other in others:
            report.merge(other)
        return report

    def _audit_one(self, st: Any) -> AuditReport:
        if isinstance(st, BalancedOrientation):
            return audit_orientation(st, self.graph)
        return audit_invariants(st, f"{type(st).__name__} invariants")

    # -- internals ----------------------------------------------------------------

    def _validate(self, op: BatchOp) -> None:
        batch = normalize_batch(op.edges)
        for e in batch:
            if op.kind == "insert" and e in self.graph.edges:
                raise BatchError(f"inserting live edge {e}")
            if op.kind == "delete" and e not in self.graph.edges:
                raise BatchError(f"deleting absent edge {e}")

    def _try(self, op: BatchOp) -> Optional[BaseException]:
        """One guarded attempt; returns the exception instead of raising."""
        try:
            self._attempt(op, self.structures)
        except RecoveryError:
            raise
        except BaseException as exc:
            return exc
        return None

    def _attempt(self, op: BatchOp, structures: tuple[Any, ...]) -> None:
        """Nested guarded regions: a failure rolls back exactly the
        structures entered so far, each captured just before it applies."""
        if structures:
            st = structures[0]
            with guarded(st):
                replay((op,), st)
                self._attempt(op, structures[1:])

    def _commit(self, op: BatchOp) -> None:
        replay((op,), self.graph)
        self.history.append(op)
        self.applied += 1

    def _recover_and_retry(self, op: BatchOp, first_exc: BaseException) -> str:
        """Escalate until the batch applies; returns the deepest tier used.

        A burst of transient faults can outlast one pass (the tier-1 retry
        faults again, the tier-2 replay faults, ...), so the whole ladder
        runs up to ``MAX_RECOVERY_ROUNDS`` times — each round either
        consumes faults or lands the batch.
        """
        deepest = "rollback"
        last: Optional[BaseException] = first_exc
        for _round in range(MAX_RECOVERY_ROUNDS):
            # Tier 1: guarded() already rolled back; retry on that state.
            if self.healthy() and self._try(op) is None:
                return deepest
            # Tier 2: restore the last checkpoint and replay the suffix.
            deepest = "rebuild" if deepest == "rebuild" else "checkpoint"
            _trace.event(
                "recovery.escalate", tier="checkpoint", batch=self.applied
            )
            if self._tier2_restore() and self._try(op) is None:
                return deepest
            # Tier 3: rebuild from the ground truth.
            deepest = "rebuild"
            _trace.event("recovery.escalate", tier="rebuild", batch=self.applied)
            try:
                self._tier3_rebuild()
            except RecoveryError as exc:
                last = exc
                continue
            if self._try(op) is None:
                return deepest
        raise RecoveryError(
            f"batch of {len(op.edges)} {op.kind}s failed after "
            f"{MAX_RECOVERY_ROUNDS} recovery rounds "
            f"(first failure: {first_exc!r}, last: {last!r})"
        )

    def _repair_in_place(self) -> str:
        """Post-commit corruption: history already includes the bad batch."""
        if self._tier2_restore():
            return "checkpoint"
        self._tier3_rebuild()
        if self.healthy():
            return "rebuild"
        raise RecoveryError(
            "structures still unhealthy after a full rebuild from the "
            "ground-truth graph"
        )

    def _tier2_restore(self) -> bool:
        """Checkpoint + history-suffix replay; False means escalate."""
        self.cm.count("recovery_tier2_replays")
        try:
            for st, snap in zip(self.structures, self._ckpt):
                rollback(st, snap)
                replay(self.history, st)
        except BaseException:
            return False
        return self.healthy()

    def _tier3_rebuild(self) -> None:
        """Rebuild from the ground-truth graph (raises RecoveryError if
        every attempt fails — e.g. faults keep firing mid-rebuild).  An
        attempt builds every structure before installing any."""
        prev_touched = [set(getattr(st, "_touched", ())) for st in self.structures]
        last: Optional[BaseException] = None
        for _ in range(MAX_REBUILD_ATTEMPTS):
            self.cm.count("recovery_rebuild_attempts")
            try:
                fresh = [self._build_from_graph(st) for st in self.structures]
                for st, new, touched in zip(self.structures, fresh, prev_touched):
                    rollback(st, capture(new))
                    if hasattr(st, "_touched"):
                        st._touched |= touched
                if self.healthy():
                    return
            except BaseException as exc:
                last = exc
        raise RecoveryError(
            f"all {MAX_REBUILD_ATTEMPTS} rebuild attempts failed "
            f"(last error: {last!r})"
        )

    def _build_from_graph(self, st: Any) -> Any:
        edges = sorted(self.graph.edges)
        if isinstance(st, BalancedOrientation):
            from ..core.bulk import from_graph

            return from_graph(edges, st.H, cm=self.cm, constants=st.constants)
        fresh = type(st)(
            st.n,
            eps=st.eps,
            cm=self.cm,
            constants=st.constants,
            seed=st.seed,
            h_max=st.h_max,
        )
        for i in range(0, len(edges), REBUILD_CHUNK):
            fresh.insert_batch(edges[i : i + REBUILD_CHUNK])
        return fresh
