"""Substrate equivalence: flat vs treap, property-tested end to end.

The flat substrate's contract (docs/PERFORMANCE.md) is that it is a pure
wall-clock knob: for any batch stream, every query answer *and* every
cost-model total (work, depth, counters) is bit-identical to the treap
substrate — including through ``guarded()`` rollback and checkpoint
round trips.  The hypothesis driver below generates arbitrary
insert/delete streams (normalised so deletes only touch live edges, the
structures' own precondition) and diffs full ladder state between the
two substrates after every batch.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Constants
from repro.core.coreness import CorenessDecomposition
from repro.core.density import DensityEstimator
from repro.graphs.graph import norm_edge
from repro.resilience.checkpoint import checkpoint, restore_checkpoint
from repro.resilience.guard import guarded

SMALL = Constants(sample_c=0.5, min_B=4, duplication_cap=8)
N = 16


# -- stream generation ---------------------------------------------------------

_edges = st.lists(
    st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)),
    min_size=1,
    max_size=8,
)

_raw_stream = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), _edges),
    min_size=1,
    max_size=6,
)


def _normalise(raw):
    """Turn a raw op list into a stream the structures accept.

    Inserts drop self-loops, duplicates within the batch, and edges
    already live; deletes keep only currently-live edges.  The result is
    deterministic in the raw stream, so both substrates replay the exact
    same batches.
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
    """One (coreness, density) ladder pair on a given substrate."""

    def __init__(self, substrate, seed=5):
        from repro.instrument.work_depth import CostModel

        self.cm = CostModel()
        self.core = CorenessDecomposition(
            N, eps=0.3, cm=self.cm, constants=SMALL, seed=seed,
            substrate=substrate,
        )
        self.dens = DensityEstimator(
            N, eps=0.3, cm=self.cm, constants=SMALL, seed=seed,
            substrate=substrate,
        )

    def apply(self, kind, edges):
        for st_ in (self.core, self.dens):
            if kind == "insert":
                st_.insert_batch(edges)
            else:
                st_.delete_batch(edges)

    def observe(self):
        return (
            tuple(sorted(self.core.estimates().items())),
            self.core.max_estimate(),
            self.dens.density_estimate(),
            self.dens.arboricity_estimate(),
            self.dens.max_outdegree(),
        )

    def totals(self):
        return (self.cm.work, self.cm.depth, dict(sorted(self.cm.counters.items())))


# -- the equivalence property --------------------------------------------------


class TestFlatTreapEquivalence:
    @given(raw=_raw_stream)
    @settings(max_examples=20, deadline=None)
    def test_stream_bit_identical(self, raw):
        ops = _normalise(raw)
        treap, flat = _Pair("treap"), _Pair("flat")
        for kind, edges in ops:
            treap.apply(kind, edges)
            flat.apply(kind, edges)
            assert flat.observe() == treap.observe()
            assert flat.totals() == treap.totals()
        treap.core.check_invariants()
        flat.core.check_invariants()

    @given(raw=_raw_stream, boom_at=st.integers(0, 5))
    @settings(max_examples=15, deadline=None)
    def test_guarded_rollback_bit_identical(self, raw, boom_at):
        """A rolled-back batch leaves both substrates in the same state.

        One batch (index ``boom_at``) is applied under ``guarded()`` and
        aborted mid-transaction; the rollback must restore both ladders
        to states that keep agreeing — answers and accounting — for the
        rest of the stream.  Batches are validated against the *actual*
        live edge set, which the rolled-back batch never joins — a later
        op must not assume the aborted batch landed.
        """
        treap, flat = _Pair("treap"), _Pair("flat")
        live: set = set()
        index = 0
        for kind, edges in raw:
            batch = _valid_batch(kind, edges, live)
            if not batch:
                continue
            if index == boom_at:
                # aborted: the ladders — and therefore ``live`` — are
                # rolled back to their pre-batch state.
                for pair in (treap, flat):
                    with pytest.raises(RuntimeError):
                        with guarded(pair.core):
                            with guarded(pair.dens):
                                pair.apply(kind, batch)
                                raise RuntimeError("forced abort")
            else:
                treap.apply(kind, batch)
                flat.apply(kind, batch)
                if kind == "insert":
                    live.update(batch)
                else:
                    live.difference_update(batch)
            index += 1
            assert flat.observe() == treap.observe()
            assert flat.totals() == treap.totals()

    @given(raw=_raw_stream)
    @settings(max_examples=10, deadline=None)
    def test_checkpoint_round_trip_bit_identical(self, raw):
        """Checkpoints agree modulo the substrate tag and restore cleanly —
        including *across* substrates (a treap checkpoint restored onto
        flat answers identically)."""
        ops = _normalise(raw)
        treap, flat = _Pair("treap"), _Pair("flat")
        for kind, edges in ops:
            treap.apply(kind, edges)
            flat.apply(kind, edges)
        for st_t, st_f in ((treap.core, flat.core), (treap.dens, flat.dens)):
            pay_t, pay_f = checkpoint(st_t), checkpoint(st_f)
            assert pay_t["substrate"] == "treap"
            assert pay_f["substrate"] == "flat"
            pay_f_as_t = dict(pay_f, substrate="treap")
            assert pay_t == pay_f_as_t  # logical state identical
            back_f = restore_checkpoint(pay_f)
            assert back_f.substrate == "flat"
            # cross-substrate restore: treap payload onto flat layout
            cross = restore_checkpoint(dict(pay_t, substrate="flat"))
            assert cross.substrate == "flat"
            for q in ("estimates",) if hasattr(st_t, "estimates") else ():
                assert getattr(back_f, q)() == getattr(st_t, q)()
                assert getattr(cross, q)() == getattr(st_t, q)()
        assert flat.observe() == treap.observe()
