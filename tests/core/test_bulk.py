"""Tests for static bulk construction of BALANCED(H)."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BalancedOrientation
from repro.core.bulk import from_graph, static_balanced_orientation
from repro.core.levels import levkey
from repro.errors import BatchError
from repro.graphs import generators as gen
from repro.instrument.work_depth import CostModel


def assert_h_balanced(tail_of, deg, H):
    for (a, b), tail in tail_of.items():
        head = b if tail == a else a
        assert levkey(deg.get(tail, 0), H) <= levkey(deg.get(head, 0), H) + 1


class TestStaticOrientation:
    @pytest.mark.parametrize("H", [1, 3, 6])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_graphs_balanced(self, H, seed):
        n, edges = gen.erdos_renyi(50, 180, seed=seed)
        tail_of, deg = static_balanced_orientation(edges, H)
        assert set(tail_of) == set(edges)
        assert_h_balanced(tail_of, deg, H)
        assert sum(deg.values()) == len(edges)

    def test_clique(self):
        n, edges = gen.clique(10)
        tail_of, deg = static_balanced_orientation(edges, 4)
        assert_h_balanced(tail_of, deg, 4)
        # peeling seed keeps out-degrees near degeneracy
        assert max(deg.values()) <= 9

    def test_forest_stays_at_one(self):
        n, edges = gen.random_forest(40, trees=2, seed=2)
        tail_of, deg = static_balanced_orientation(edges, 5)
        assert max(deg.values()) <= 2

    def test_empty(self):
        assert static_balanced_orientation([], 3) == ({}, {})

    def test_duplicate_rejected(self):
        with pytest.raises(BatchError):
            static_balanced_orientation([(0, 1), (1, 0)], 3)


class TestFromGraph:
    def test_indexed_structure_valid(self):
        n, edges = gen.barabasi_albert(60, 3, seed=3)
        st = from_graph(edges, H=5)
        st.check_invariants()
        assert st.num_arcs() == len(edges)

    def test_continues_dynamically(self):
        n, edges = gen.grid(6, 6)
        st = from_graph(edges, H=4)
        st.insert_batch([(100, 101)])
        st.delete_batch([edges[0]])
        st.check_invariants()

    def test_equivalent_to_incremental(self):
        """Same undirected edge set; both ways satisfy the same invariant."""
        n, edges = gen.erdos_renyi(30, 90, seed=4)
        bulk = from_graph(edges, H=4)
        incremental = BalancedOrientation(H=4)
        incremental.insert_batch(edges)
        bulk_edges = {(a, b) for (a, b, _c) in bulk.tail_of}
        inc_edges = {(a, b) for (a, b, _c) in incremental.tail_of}
        assert bulk_edges == inc_edges

    def test_bulk_is_faster_on_dense_input(self):
        """Bulk loading does less model work than one incremental batch.

        Compared on the cost model, not the wall clock, so the verdict is
        deterministic; the totals are pinned so a change to either path's
        accounting shows up here.
        """
        n, edges = gen.erdos_renyi(80, 500, seed=5)
        bulk_cm = CostModel()
        from_graph(edges, H=5, cm=bulk_cm)
        inc_cm = CostModel()
        BalancedOrientation(H=5, cm=inc_cm).insert_batch(edges)
        assert (bulk_cm.work, inc_cm.work) == (25_081, 69_270)
        assert bulk_cm.work < inc_cm.work


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 8))
def test_hypothesis_static_always_balanced(seed, H):
    n, edges = gen.erdos_renyi(20, 50, seed=seed)
    tail_of, deg = static_balanced_orientation(edges, H)
    assert_h_balanced(tail_of, deg, H)
