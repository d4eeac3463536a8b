"""Interrupted runs match uninterrupted ones, property-tested end to end.

A ladder that is checkpointed and restored, or whose batch is rolled
back by ``guarded()``, must continue exactly as if nothing had happened:
the same query answers after every later batch *and* the same work,
depth and counters charged by every later batch.  That holds only if the
rebuilt orientation takes the same token-game trajectory as the original
— the reason ``InIndex.any_at`` answers with the minimum unlabelled tail
of the right truncated rank filed at a level, a pick that depends on the
bucket's contents, the out-sets and the labels, and not on the order it
was filled in
(docs/ROBUSTNESS.md).  The hypothesis driver below generates
arbitrary insert/delete streams (normalised so deletes only touch live
edges, the structures' own precondition) and diffs an interrupted run
against an uninterrupted one after every batch.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Constants
from repro.core.coreness import CorenessDecomposition
from repro.core.density import DensityEstimator
from repro.graphs import streams
from repro.graphs.graph import norm_edge
from repro.instrument.work_depth import CostModel
from repro.resilience.checkpoint import checkpoint, from_json, restore_checkpoint, to_json
from repro.resilience.guard import guarded

SMALL = Constants(sample_c=0.5, min_B=4, duplication_cap=8)
N = 16


# -- stream generation ---------------------------------------------------------

_edges = st.lists(
    st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)),
    min_size=1,
    max_size=12,
)

_raw_stream = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), _edges),
    min_size=1,
    max_size=8,
)


def _normalise(raw):
    """Turn a raw op list into a stream the structures accept.

    Inserts drop self-loops, duplicates within the batch, and edges
    already live; deletes keep only currently-live edges.  The result is
    deterministic in the raw stream, so both runs replay the exact same
    batches.
    """
    live: set[tuple[int, int]] = set()
    ops = []
    for kind, edges in raw:
        batch = _valid_batch(kind, edges, live)
        if not batch:
            continue
        live.update(batch) if kind == "insert" else live.difference_update(batch)
        ops.append((kind, batch))
    return ops


def _valid_batch(kind, edges, live):
    """The subset of ``edges`` the structures accept against ``live``."""
    batch = []
    for u, v in edges:
        if u == v:
            continue
        e = norm_edge(u, v)
        if kind == "insert" and e not in live and e not in batch:
            batch.append(e)
        elif kind == "delete" and e in live and e not in batch:
            batch.append(e)
    return batch


class _Pair:
    """One (coreness, density) ladder pair sharing a cost model."""

    def __init__(self, seed=5):
        self.cm = CostModel()
        self.core = CorenessDecomposition(N, eps=0.3, cm=self.cm, constants=SMALL, seed=seed)
        self.dens = DensityEstimator(N, eps=0.3, cm=self.cm, constants=SMALL, seed=seed)

    @classmethod
    def restored(cls, other):
        """A pair rebuilt from ``other``'s checkpoints on a fresh cost model."""
        pair = cls.__new__(cls)
        pair.cm = CostModel()
        pair.core = restore_checkpoint(checkpoint(other.core), cm=pair.cm)
        pair.dens = restore_checkpoint(checkpoint(other.dens), cm=pair.cm)
        return pair

    def apply(self, kind, edges):
        """Apply one batch; returns the (work, depth, counters) it charged."""
        work, depth = self.cm.work, self.cm.depth
        counters = dict(self.cm.counters)
        for st_ in (self.core, self.dens):
            if kind == "insert":
                st_.insert_batch(edges)
            else:
                st_.delete_batch(edges)
        spent = {
            k: v - counters.get(k, 0)
            for k, v in sorted(self.cm.counters.items())
            if v != counters.get(k, 0)
        }
        return self.cm.work - work, self.cm.depth - depth, spent

    def state(self):
        """The logical state (per-rung arcs and levels) of both ladders."""
        return checkpoint(self.core), checkpoint(self.dens)

    def observe(self):
        return (
            tuple(sorted(self.core.estimates().items())),
            self.core.max_estimate(),
            self.dens.density_estimate(),
            self.dens.arboricity_estimate(),
            self.dens.max_outdegree(),
        )


# -- the equivalence properties ------------------------------------------------


class TestRestoredRun:
    @given(raw=_raw_stream)
    @settings(max_examples=20, deadline=None)
    def test_stream_bit_identical(self, raw):
        """A run restored from a checkpoint before every batch matches an
        uninterrupted one: logical state, answers and per-batch
        work/depth/counters."""
        ops = _normalise(raw)
        straight, interrupted = _Pair(), _Pair()
        for kind, edges in ops:
            interrupted = _Pair.restored(interrupted)
            assert interrupted.apply(kind, edges) == straight.apply(kind, edges)
            assert interrupted.state() == straight.state()
            assert interrupted.observe() == straight.observe()
        interrupted.core.check_invariants()
        interrupted.dens.check_invariants()

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_churn_restored_every_batch(self, seed):
        """The same property on denser churn streams, whose games often
        pick a tail from a bucket holding several.  A bucket pick that
        depended on filing order (the oldest tail, say) diverges on a
        third of these streams; short random streams rarely reach such
        a bucket."""
        straight, interrupted = _Pair(), _Pair()
        for op in streams.churn(N, steps=12, batch_size=6, seed=seed):
            interrupted = _Pair.restored(interrupted)
            assert interrupted.apply(op.kind, op.edges) == straight.apply(op.kind, op.edges)
            assert interrupted.state() == straight.state()
        assert interrupted.observe() == straight.observe()

    @given(raw=_raw_stream, boom_at=st.integers(0, 5))
    @settings(max_examples=15, deadline=None)
    def test_guarded_rollback_bit_identical(self, raw, boom_at):
        """A rolled-back batch leaves the ladders as if it never ran.

        One batch (index ``boom_at``) is applied under ``guarded()`` and
        aborted mid-transaction on one pair only; the other pair never
        sees it.  Both must then agree — logical state, answers and
        per-batch accounting — for the rest of the stream.  Batches are
        validated against the *actual* live edge set, which the
        rolled-back batch never joins.
        """
        straight, rolled = _Pair(), _Pair()
        live: set = set()
        index = 0
        for kind, edges in raw:
            batch = _valid_batch(kind, edges, live)
            if not batch:
                continue
            if index == boom_at:
                with pytest.raises(RuntimeError):
                    with guarded(rolled.core):
                        with guarded(rolled.dens):
                            rolled.apply(kind, batch)
                            raise RuntimeError("forced abort")
            else:
                assert rolled.apply(kind, batch) == straight.apply(kind, batch)
                if kind == "insert":
                    live.update(batch)
                else:
                    live.difference_update(batch)
            index += 1
            assert rolled.state() == straight.state()
            assert rolled.observe() == straight.observe()

    @given(raw=_raw_stream)
    @settings(max_examples=10, deadline=None)
    def test_checkpoint_round_trip_bit_identical(self, raw):
        """checkpoint -> JSON -> restore -> checkpoint is the identity on
        the payload, and the restored ladders answer identically."""
        ops = _normalise(raw)
        pair = _Pair()
        for kind, edges in ops:
            pair.apply(kind, edges)
        for original in (pair.core, pair.dens):
            payload = checkpoint(original)
            back = from_json(to_json(original))
            assert checkpoint(back) == payload
            assert "substrate" not in payload
        back = _Pair.restored(pair)
        assert back.observe() == pair.observe()
