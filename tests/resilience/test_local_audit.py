"""The post-commit audit: local (O(batch)) between full audits.

A :class:`RecoveryManager` with ``audit_every=k`` checks, after every
batch, only the region that batch could have changed (the endpoints T of
the orientations' change journals, and the vertices L of T whose
truncated level moved); the full audit runs every k-th batch and before
every in-memory checkpoint, and a tenant's durable checkpoint is only
ever written from a state that passed a full audit.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.balanced import BalancedOrientation
from repro.core.coreness import CorenessDecomposition
from repro.core.density import DensityEstimator
from repro.core.levels import levkey
from repro.errors import InvariantViolation
from repro.graphs.streams import BatchOp, churn
from repro.resilience import checkpoint as ckpt
from repro.resilience import recovery
from repro.resilience.recovery import RecoveryManager
from repro.service.state import CHECKPOINT_NAME, TenantConfig, TenantShard

from ..service.test_state import churn_batches, drive, oracle_answers

N = 20
OPS = churn(N, 40, 4, seed=13)


def orientations(st) -> list[BalancedOrientation]:
    """Every BALANCED(H) inside a managed structure."""
    if isinstance(st, BalancedOrientation):
        return [st]
    out: list[BalancedOrientation] = []
    for rung in st.rungs:
        if rung.dup is not None:
            out.append(rung.dup.inner)
        elif getattr(rung, "bal", None) is not None:
            out.append(rung.bal)
        else:
            out.extend(rung._buckets[i] for i in sorted(rung._buckets))
    return out


def make(kind: str):
    if kind == "balanced":
        return BalancedOrientation(4)
    cls = CorenessDecomposition if kind == "coreness" else DensityEstimator
    return cls(N, eps=0.35, seed=2)


def corrupt_after_commit(mgr: RecoveryManager, at: int, pick) -> list:
    """Bump one level right after batch ``at`` commits, before its audit.

    ``pick(orientations)`` returns ``(orientation, vertex)``; the chosen
    pair is appended to the returned list.
    """
    done: list = []
    commit = mgr._commit

    def corrupting_commit(op):
        commit(op)
        if mgr.applied == at:
            bal, v = pick([o for st in mgr.structures for o in orientations(st)])
            bal.level[v] = bal.level.get(v, 0) + 1
            done.append((bal, v))

    mgr._commit = corrupting_commit
    return done


def touched_vertex(bals):
    for bal in bals:
        touched = sorted(bal.journal_vertices())
        if touched:
            return bal, touched[0]
    raise AssertionError("the batch touched no vertex")


def untouched_isolated_vertex(bals):
    """A vertex with no out-arc that the batch did not touch: bumping its
    level breaks only ``level == |out|``, which no local check reads."""
    for bal in bals:
        touched = bal.journal_vertices()
        for v in range(N):
            if v not in touched and not bal.out.get(v):
                return bal, v
    raise AssertionError("no untouched out-degree-0 vertex")


@pytest.fixture
def clean_captures(monkeypatch):
    """Fail if the manager ever captures an in-memory checkpoint from a
    state that does not pass the full audit."""
    real = recovery.capture

    def checked(st):
        st.check_invariants()
        return real(st)

    monkeypatch.setattr(recovery, "capture", checked)


class TestDetectionLatency:
    @pytest.mark.parametrize("kind", ["balanced", "coreness", "density"])
    def test_touched_corruption_caught_in_the_same_batch(self, kind):
        mgr = RecoveryManager(make(kind), checkpoint_every=16, audit_every=16)
        done = corrupt_after_commit(mgr, 5, touched_vertex)
        outcomes = [mgr.apply(op) for op in OPS[:8]]
        assert done, "the corruption was not planted"
        assert outcomes[4] == "checkpoint"  # batch 5: local audit, repaired
        assert outcomes[:4] == ["ok"] * 4 and outcomes[5:] == ["ok"] * 3
        assert mgr.audit().ok

    @pytest.mark.parametrize("kind", ["balanced", "coreness", "density"])
    def test_untouched_corruption_caught_by_next_full_audit(
        self, kind, clean_captures
    ):
        mgr = RecoveryManager(make(kind), checkpoint_every=16, audit_every=16)
        local = []
        healthy = mgr.healthy

        def spy(op=None):
            verdict = healthy(op)
            local.append((mgr.applied, op is not None, verdict))
            return verdict

        mgr.healthy = spy
        done = corrupt_after_commit(mgr, 5, untouched_isolated_vertex)
        outcomes = [mgr.apply(op) for op in OPS[:20]]
        assert done
        # batch 5's local audit cannot see the vertex; some batch up to the
        # next full audit (batch 16) repairs it, and nothing before 5 did
        assert (5, True, True) in local
        repaired = [i for i, o in enumerate(outcomes, 1) if o != "ok"]
        assert len(repaired) == 1 and 5 <= repaired[0] <= 16
        assert mgr.audit().ok
        assert mgr.applied % 16 == 4 and mgr.audited == 16

    def test_audit_every_one_catches_untouched_corruption_at_once(self):
        mgr = RecoveryManager(make("coreness"), checkpoint_every=16, audit_every=1)
        corrupt_after_commit(mgr, 5, untouched_isolated_vertex)
        outcomes = [mgr.apply(op) for op in OPS[:8]]
        assert outcomes[4] == "checkpoint"

    @pytest.mark.parametrize("every, calls", [(0, []), (1, [None] * 20)])
    def test_audit_every_zero_and_one_are_unchanged(self, every, calls):
        """0: no post-commit audit at all; 1: the full audit every batch."""
        mgr = RecoveryManager(make("coreness"), checkpoint_every=16, audit_every=every)
        seen = []
        healthy = mgr.healthy

        def spy(op=None):
            seen.append(op)
            return healthy(op)

        mgr.healthy = spy
        assert [mgr.apply(op) for op in OPS[:20]] == ["ok"] * 20
        assert seen == calls


class TestDurableCheckpointIsAudited:
    CFG = TenantConfig(n=N, eps=0.35, seed=5)

    def _shard(self, tmp_path, every):
        return TenantShard("t", tmp_path / "t", self.CFG, checkpoint_every=every)

    def _assert_clean_checkpoint(self, tmp_path):
        payload = json.loads((tmp_path / "t" / CHECKPOINT_NAME).read_text())
        for blob in payload["structures"].values():
            ckpt.restore_checkpoint(blob).check_invariants()

    def test_periodic_checkpoint_after_untouched_corruption(self, tmp_path):
        batches = churn_batches(N, seed=3, count=9, size=3)
        shard = self._shard(tmp_path, every=5)
        done = corrupt_after_commit(shard.manager, 5, untouched_isolated_vertex)
        drive(shard, batches)
        assert done
        # the write's own full audit found it and repaired before writing
        assert shard.cm.counters.get("recovery_checkpoint") == 1
        self._assert_clean_checkpoint(tmp_path)
        shard._writer.abort()  # crash: no closing checkpoint
        reopened = self._shard(tmp_path, every=5)
        oracle = oracle_answers(self.CFG, batches)
        assert reopened.applied == len(batches)
        assert reopened.snapshot.coreness == oracle[len(batches)][0]
        assert reopened.snapshot.density == oracle[len(batches)][1]
        assert reopened.manager.audit().ok

    def test_closing_checkpoint_after_untouched_corruption(self, tmp_path):
        batches = churn_batches(N, seed=4, count=7, size=3)
        shard = self._shard(tmp_path, every=1000)
        done = corrupt_after_commit(shard.manager, 7, untouched_isolated_vertex)
        drive(shard, batches)
        assert done
        assert "recovery_checkpoint" not in shard.cm.counters
        shard.close()
        assert shard.cm.counters.get("recovery_checkpoint") == 1
        self._assert_clean_checkpoint(tmp_path)
        reopened = self._shard(tmp_path, every=1000)
        oracle = oracle_answers(self.CFG, batches)
        assert reopened.snapshot.coreness == oracle[len(batches)][0]
        assert reopened.snapshot.density == oracle[len(batches)][1]
        # close() repaired before it wrote, and republished the snapshot
        assert shard.snapshot.coreness == oracle[len(batches)][0]


# -- property: the journals cover every change, and local == full on clean runs


@st.composite
def streams(draw):
    n = draw(st.integers(4, 12))
    live: set = set()
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        if live and draw(st.booleans()):
            pool = sorted(live)
            k = draw(st.integers(1, len(pool)))
            victims = tuple(pool[:k]) if draw(st.booleans()) else tuple(pool[-k:])
            live -= set(victims)
            ops.append(BatchOp("delete", victims))
        else:
            fresh = set()
            for _ in range(draw(st.integers(1, 8))):
                u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
                if u != v and (min(u, v), max(u, v)) not in live:
                    fresh.add((min(u, v), max(u, v)))
            if fresh:
                live |= fresh
                ops.append(BatchOp("insert", tuple(sorted(fresh))))
    return n, ops


def _state(bal: BalancedOrientation) -> dict:
    return {
        v: (bal.level.get(v, 0), tuple(bal.out[v]) if v in bal.out else ())
        for v in set(bal.level) | set(bal.out)
    }


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(streams(), st.sampled_from(["balanced", "coreness", "density"]))
def test_journal_covers_every_change_and_local_agrees_with_full(stream, kind):
    n, ops = stream
    if kind == "balanced":
        structure = BalancedOrientation(3)
    else:
        cls = CorenessDecomposition if kind == "coreness" else DensityEstimator
        structure = cls(n, eps=0.35, seed=1)
    for op in ops:
        before = [_state(b) for b in orientations(structure)]
        getattr(structure, f"{op.kind}_batch")(op.edges)
        for bal, prev in zip(orientations(structure), before):
            now = _state(bal)
            changed = {v for v in set(prev) | set(now) if prev.get(v) != now.get(v)}
            if not changed:
                continue  # an orientation the batch did not reach
            touched = bal.journal_vertices()
            assert changed <= touched
            relevelled = {
                v for v in changed
                if levkey(prev.get(v, (0,))[0], bal.H) != levkey(now[v][0], bal.H)
            }
            assert relevelled <= set(bal.last_relevelled)
        # fault-free: the local audit and the full audit are both clean
        structure.check_batch(op.kind, [tuple(e) for e in op.edges])
        structure.check_invariants()


def test_local_audit_flags_what_the_full_audit_flags_in_the_touched_region():
    bal = BalancedOrientation(3)
    bal.insert_batch([(0, 1), (1, 2), (2, 3)])
    v = sorted(bal.journal_vertices())[0]
    bal.level[v] += 1
    with pytest.raises(InvariantViolation):
        bal.check_batch("insert", [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(InvariantViolation):
        bal.check_invariants()
