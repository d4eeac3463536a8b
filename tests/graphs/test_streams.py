"""Tests for batch-update streams: every stream must be replayable."""

import pytest

from repro.errors import ParameterError
from repro.graphs import DynamicGraph, generators as gen, streams


def replayable(ops):
    """Replaying must never raise (inserts absent, deletes present)."""
    g = DynamicGraph(0)
    streams.replay(ops, g)
    return g


class TestInsertOnly:
    def test_chunking(self):
        _, edges = gen.path(10)
        ops = streams.insert_only(edges, 4)
        assert [op.size for op in ops] == [4, 4, 1]
        assert all(op.kind == "insert" for op in ops)
        replayable(ops)

    def test_bad_batch_size(self):
        with pytest.raises(ParameterError):
            streams.insert_only([(0, 1)], 0)


class TestInsertThenDelete:
    def test_ends_empty(self):
        _, edges = gen.clique(6)
        g = replayable(streams.insert_then_delete(edges, 5, seed=1))
        assert g.m == 0

    def test_total_ops(self):
        _, edges = gen.clique(5)
        ops = streams.insert_then_delete(edges, 3)
        inserts = sum(op.size for op in ops if op.kind == "insert")
        deletes = sum(op.size for op in ops if op.kind == "delete")
        assert inserts == deletes == 10


class TestSlidingWindow:
    def test_window_bounds_live_edges(self):
        _, edges = gen.erdos_renyi(50, 120, seed=2)
        ops = streams.sliding_window(edges, window=3, batch_size=10)
        g = DynamicGraph(0)
        max_live = 0
        for op in ops:
            if op.kind == "insert":
                g.insert_batch(op.edges)
            else:
                g.delete_batch(op.edges)
            max_live = max(max_live, g.m)
        assert max_live <= 4 * 10  # window + the just-inserted batch

    def test_invalid_window(self):
        with pytest.raises(ParameterError):
            streams.sliding_window([(0, 1)], window=0, batch_size=1)


class TestChurn:
    def test_replayable(self):
        g = replayable(streams.churn(30, steps=50, batch_size=7, seed=3))
        assert g.m >= 0

    def test_contains_deletes(self):
        ops = streams.churn(30, steps=60, batch_size=5, insert_bias=0.4, seed=4)
        assert any(op.kind == "delete" for op in ops)

    def test_deterministic(self):
        a = streams.churn(20, 20, 4, seed=9)
        b = streams.churn(20, 20, 4, seed=9)
        assert a == b


class TestAdversarial:
    def test_sawtooth_replayable_and_cyclic(self):
        ops = streams.sawtooth_clique(6, repeats=3, small_batch=2)
        g = replayable(ops)
        assert g.m == 0
        big_inserts = [op for op in ops if op.kind == "insert"]
        assert len(big_inserts) == 3
        assert big_inserts[0].size == 15

    def test_density_ramp_monotone(self):
        ops = streams.density_ramp(40, block=10, levels=4, per_level=8, seed=5)
        assert all(op.kind == "insert" for op in ops)
        g = replayable(ops)
        assert g.m == sum(op.size for op in ops)

    def test_density_ramp_block_cap(self):
        ops = streams.density_ramp(20, block=5, levels=100, per_level=3, seed=6)
        assert sum(op.size for op in ops) == 10  # all C(5,2) block edges
