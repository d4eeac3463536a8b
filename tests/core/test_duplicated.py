"""Tests for BALANCED(H, K) — duplication (Corollary 5.4 / Lemma 5.3)."""

import pytest

from repro.baselines import core_numbers
from repro.core import DuplicatedBalanced
from repro.errors import InvariantViolation, ParameterError
from repro.graphs import DynamicGraph, generators as gen


class TestBasics:
    def test_k_copies_inserted(self):
        d = DuplicatedBalanced(inner_H=6, K=3)
        d.insert_batch([(0, 1), (1, 2)])
        assert d.inner.num_arcs() == 6
        d.check_invariants()

    def test_delete_removes_all_copies(self):
        d = DuplicatedBalanced(inner_H=6, K=3)
        d.insert_batch([(0, 1), (1, 2)])
        d.delete_batch([(0, 1)])
        assert d.inner.num_arcs() == 3
        d.check_invariants()

    def test_missing_copy_is_an_invariant_violation(self):
        d = DuplicatedBalanced(inner_H=6, K=3)
        d.insert_batch([(0, 1), (1, 2)])
        d.inner.delete_multi_batch([(0, 1, 1)])
        d.inner.check_invariants()  # the inner orientation itself is sound
        with pytest.raises(InvariantViolation, match="has 2 copies, expected 3"):
            d.check_invariants()

    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            DuplicatedBalanced(inner_H=4, K=0)

    def test_k_above_cap_rejected(self):
        with pytest.raises(ParameterError):
            DuplicatedBalanced(inner_H=4, K=1000)

    def test_fractional_outdegree(self):
        d = DuplicatedBalanced(inner_H=9, K=3)
        d.insert_batch([(0, 1), (0, 2), (0, 3)])
        total = sum(d.fractional_outdegree(v) for v in range(4))
        assert total == pytest.approx(3.0)


class TestLemma53:
    """Duplication multiplies coreness by exactly K."""

    @pytest.mark.parametrize("K", [2, 3])
    def test_duplicated_coreness_scales(self, K):
        n, edges = gen.clique(5)
        g = DynamicGraph(n, edges)
        base = core_numbers(g)
        # model the duplicated multigraph as K parallel simple-graph layers
        # hanging off the same vertices is NOT the same thing; instead use
        # the degree argument directly: mindeg of G[S] scales by K, so the
        # exact statement checked is core(G', v) == K * core(G, v) via the
        # peeling definition on a multigraph emulation.
        from repro.baselines.exact_kcore import core_numbers as cn

        class MultiView:
            n = g.n

            @staticmethod
            def degree(v):
                return K * g.degree(v)

            @staticmethod
            def neighbors(v):
                out = []
                for w in g.neighbors(v):
                    out.extend([w] * K)
                return out

        cores = cn(MultiView)
        assert all(cores[v] == K * base[v] for v in range(n))


class TestMajorityOrientation:
    def test_majority_is_a_valid_orientation(self):
        n, edges = gen.erdos_renyi(20, 60, seed=1)
        d = DuplicatedBalanced(inner_H=12, K=3)
        d.insert_batch(edges)
        for u, v in edges:
            tail, head = d.majority_orientation(u, v)
            assert {tail, head} == {u, v}

    def test_majority_out_neighbors_cover_edges_exactly_once(self):
        # regression: with even K, exact ties used to be claimed by BOTH
        # endpoints, double-covering edges; the deterministic tie-break
        # (toward the smaller endpoint) makes the cover exact
        n, edges = gen.grid(4, 4)
        d = DuplicatedBalanced(inner_H=8, K=2)
        d.insert_batch(edges)
        covered = []
        for v in range(n):
            for w in d.majority_out_neighbors(v):
                covered.append(tuple(sorted((v, w))))
        assert sorted(covered) == sorted(edges)

    def test_majority_consistency_with_orientation(self):
        n, edges = gen.erdos_renyi(15, 40, seed=9)
        for K in (2, 3):
            d = DuplicatedBalanced(inner_H=10, K=K)
            d.insert_batch(edges)
            for u, v in edges:
                tail, head = d.majority_orientation(u, v)
                assert head in d.majority_out_neighbors(tail)
                assert tail not in d.majority_out_neighbors(head)

    def test_majority_unique_with_odd_k(self):
        n, edges = gen.cycle(8)
        d = DuplicatedBalanced(inner_H=6, K=3)
        d.insert_batch(edges)
        count = sum(len(d.majority_out_neighbors(v)) for v in range(n))
        assert count == len(edges)  # odd K: exactly one direction wins

    def test_majority_outdegree_about_double_fractional(self):
        n, edges = gen.clique(7)
        d = DuplicatedBalanced(inner_H=14, K=3)
        d.insert_batch(edges)
        for v in range(n):
            assert len(d.majority_out_neighbors(v)) <= 2 * d.fractional_outdegree(v) + 1


class TestInterleaved:
    def test_mixed_updates_keep_invariants(self):
        import random

        n, edges = gen.erdos_renyi(15, 40, seed=2)
        d = DuplicatedBalanced(inner_H=10, K=2)
        rng = random.Random(3)
        live = []
        pending = list(edges)
        for step in range(8):
            if pending and (rng.random() < 0.7 or not live):
                take = pending[:5]
                pending = pending[5:]
                d.insert_batch(take)
                live.extend(take)
            else:
                rng.shuffle(live)
                kill = live[:3]
                live = live[3:]
                d.delete_batch(kill)
            d.check_invariants()
