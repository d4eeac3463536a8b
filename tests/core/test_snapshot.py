"""Tests for checkpoint/restore of the balanced orientation."""

import pytest

from repro.core import BalancedOrientation
from repro.errors import BatchError, InvariantViolation
from repro.graphs import generators as gen, streams
from repro.resilience import checkpoint as cp


def build(H=4, seed=0):
    st = BalancedOrientation(H=H)
    for op in streams.churn(24, steps=20, batch_size=6, seed=seed):
        if op.kind == "insert":
            st.insert_batch(op.edges)
        else:
            st.delete_batch(op.edges)
    return st


class TestRoundtrip:
    def test_same_orientation_and_levels(self):
        def nonzero(levels):
            return {v: l for v, l in levels.items() if l}

        st = build()
        st2 = cp.restore_checkpoint(cp.checkpoint(st))
        assert sorted(st.arcs()) == sorted(st2.arcs())
        assert nonzero(st.level) == nonzero(st2.level)
        st2.check_invariants()

    def test_restored_structure_accepts_updates(self):
        st = build()
        st2 = cp.restore_checkpoint(cp.checkpoint(st))
        live = {(a, b) for (a, b, _c) in st2.tail_of}
        fresh = [(100, 101), (101, 102)]
        st2.insert_batch(fresh)
        st2.check_invariants()
        victim = next(iter(live))
        st2.delete_batch([victim])
        st2.check_invariants()

    def test_json_roundtrip(self):
        st = build(seed=5)
        st2 = cp.from_json(cp.to_json(st))
        assert sorted(st.arcs()) == sorted(st2.arcs())
        st2.check_invariants()

    def test_empty_structure(self):
        st = BalancedOrientation(H=3)
        st2 = cp.restore_checkpoint(cp.checkpoint(st))
        assert st2.num_arcs() == 0
        st2.check_invariants()

    def test_multigraph_snapshot(self):
        st = BalancedOrientation(H=6)
        _, edges = gen.clique(6)
        st.insert_multi_batch([(u, v, c) for u, v in edges for c in range(2)])
        st2 = cp.restore_checkpoint(cp.checkpoint(st))
        assert st2.num_arcs() == st.num_arcs()
        st2.check_invariants()

    def test_restore_charges_cost_model(self):
        st = build()
        snap = cp.checkpoint(st)
        from repro.instrument.work_depth import CostModel

        cm = CostModel()
        cp.restore_checkpoint(snap, cm=cm)
        assert cm.snapshot().work >= len(snap["arcs"])


class TestMalformedSnapshots:
    def test_not_a_mapping(self):
        with pytest.raises(BatchError, match="must be a mapping"):
            cp.restore_checkpoint([1, 2, 3])

    def test_from_json_garbage(self):
        with pytest.raises(BatchError, match="not valid JSON"):
            cp.from_json("{oops")

    def test_from_json_wrong_type(self):
        with pytest.raises(BatchError, match="must be a mapping"):
            cp.from_json("[1, 2]")


class TestCorruptedSnapshots:
    def test_inconsistent_levels_rejected(self):
        st = build()
        snap = cp.checkpoint(st)
        some_v = next(iter(snap["levels"]))
        snap["levels"][some_v] += 1
        with pytest.raises(InvariantViolation):
            cp.restore_checkpoint(snap)

    def test_unbalanced_arc_set_rejected(self):
        # a star oriented entirely out of the hub: min(3, 5) = 3 exceeds
        # min(3, 0) + 1 = 1, so this is not a valid 3-balanced state
        snap = {
            "H": 3,
            "arcs": [(0, i, 0) for i in range(1, 6)],
            "levels": {0: 5, **{i: 0 for i in range(1, 6)}},
        }
        with pytest.raises(InvariantViolation):
            cp.restore_checkpoint(snap)
