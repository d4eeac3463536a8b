"""Tests for the deep verifier (fsck) and the stats introspection."""

import pytest

from repro.config import Constants
from repro.core import BalancedOrientation, CorenessDecomposition, DensityEstimator
from repro.core.stats import coreness_stats, density_stats, orientation_stats
from repro.graphs import DynamicGraph, generators as gen, streams
from repro.verify import audit_coreness, audit_density, audit_orientation, replay_audit


SMALL = Constants(sample_c=0.5, min_B=4, duplication_cap=8)


def healthy_pair(seed=50):
    n, edges = gen.erdos_renyi(20, 50, seed=seed)
    st = BalancedOrientation(H=4)
    st.insert_batch(edges)
    return st, DynamicGraph(n, edges)


class TestAuditOrientation:
    def test_healthy_structure_passes(self):
        st, g = healthy_pair()
        report = audit_orientation(st, g)
        assert report.ok, report.render()

    def test_missing_edge_detected(self):
        st, g = healthy_pair()
        g.insert_batch([(30, 31)])  # graph moved on, structure did not
        report = audit_orientation(st, g)
        assert not report.ok
        assert any("absent" in f for f in report.findings)

    def test_phantom_edge_detected(self):
        st, g = healthy_pair()
        g.delete_batch([next(iter(g.edges))])
        report = audit_orientation(st, g)
        assert not report.ok
        assert any("phantom" in f for f in report.findings)

    def test_level_corruption_detected(self):
        st, g = healthy_pair()
        v = next(iter(st.level))
        st.level[v] += 3
        report = audit_orientation(st, g)
        assert not report.ok

    def test_render_mentions_status(self):
        st, g = healthy_pair()
        assert "[OK]" in audit_orientation(st, g).render()


class TestAuditEstimators:
    def test_coreness_band_passes_on_healthy(self):
        n, edges = gen.planted_dense(30, block=8, p_in=1.0, out_edges=20, seed=51)
        g = DynamicGraph(n, edges)
        cd = CorenessDecomposition(n, eps=0.4, constants=SMALL, seed=51)
        cd.insert_batch(edges)
        assert audit_coreness(cd, g).ok

    def test_coreness_band_catches_nonsense(self):
        n, edges = gen.clique(13)
        g = DynamicGraph(n, edges)
        cd = CorenessDecomposition(n, eps=0.4, constants=SMALL, seed=52)
        # estimator never saw the edges: estimates ~1 vs core 12
        report = audit_coreness(cd, g)
        assert not report.ok

    def test_density_band_passes_on_healthy(self):
        n, edges = gen.erdos_renyi(20, 50, seed=53)
        g = DynamicGraph(n, edges)
        de = DensityEstimator(n, eps=0.4, constants=SMALL, seed=53)
        de.insert_batch(edges)
        assert audit_density(de, g).ok


class TestReplayAudit:
    def test_churn_stream_clean(self):
        ops = streams.churn(20, steps=20, batch_size=5, seed=54)
        report = replay_audit(ops, H=4, constants=SMALL)
        assert report.ok, report.render()

    def test_deep_audit_runs(self):
        # the coreness/density band audits run as a one-member panel
        from repro.verify import RunnerConfig, run_diff

        ops = streams.insert_only(gen.grid(4, 4)[1], 8)
        report = run_diff(
            ops, configs=[RunnerConfig("serial")], kind="ladders",
            eps=0.4, constants=SMALL, deep_every=2,
        )
        assert report.ok, report.render()


class TestStats:
    def test_orientation_stats_consistent(self):
        st, g = healthy_pair()
        stats = orientation_stats(st)
        assert stats.arcs == g.m
        assert stats.max_outdegree == st.max_outdegree()
        assert sum(stats.level_histogram.values()) == stats.vertices
        assert "BALANCED" in stats.render()

    def test_empty_structure_stats(self):
        st = BalancedOrientation(H=3)
        stats = orientation_stats(st)
        assert stats.arcs == 0
        assert stats.mean_outdegree == 0.0

    def test_ladder_stats(self):
        cd = CorenessDecomposition(16, eps=0.4, constants=SMALL)
        cd.insert_batch([(0, 1), (1, 2)])
        stats = coreness_stats(cd)
        assert stats.rungs == len(cd.rungs)
        assert "ladder" in stats.render()

    def test_density_stats(self):
        de = DensityEstimator(16, eps=0.4, constants=SMALL)
        de.insert_batch([(0, 1)])
        stats = density_stats(de)
        assert stats.first_active_rung is not None
