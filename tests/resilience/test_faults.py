"""Fault injector: spec validation, determinism, one-shot firing, actions."""

import pytest

from repro.core.balanced import BalancedOrientation
from repro.errors import FaultInjected, ParameterError
from repro.resilience import faults
from repro.resilience.faults import ACTIONS, SITES, FaultInjector, FaultSpec, injecting


class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(ParameterError, match="unknown fault site"):
            FaultSpec("tokens.drop.typo")

    def test_unknown_action_rejected(self):
        with pytest.raises(ParameterError, match="unknown fault action"):
            FaultSpec("tokens.drop.phase", action="explode")

    def test_hit_must_be_positive(self):
        with pytest.raises(ParameterError, match="hit must be"):
            FaultSpec("tokens.drop.phase", hit=0)

    def test_catalogue_covers_all_layers(self):
        prefixes = {site.split(".")[0] for site in SITES}
        assert prefixes == {"tokens", "bundles", "hashtable"}


class TestInjector:
    def test_disabled_by_default(self):
        assert faults.ACTIVE is None

    def test_fire_unknown_site_rejected(self):
        with pytest.raises(ParameterError):
            FaultInjector().fire("not.a.site")

    def test_one_shot_then_disarmed(self):
        inj = FaultInjector([FaultSpec("bundles.extract", hit=2)])
        inj.fire("bundles.extract")  # hit 1: no match
        with pytest.raises(FaultInjected) as excinfo:
            inj.fire("bundles.extract")  # hit 2: fires
        assert excinfo.value.site == "bundles.extract"
        assert excinfo.value.hit == 2
        inj.fire("bundles.extract")  # hit 3: spec disarmed, nothing happens
        assert inj.fired == [("bundles.extract", 2, "raise")]
        assert inj.pending == []

    def test_plan_is_deterministic(self):
        a = FaultInjector.plan(seed=7, count=5)
        b = FaultInjector.plan(seed=7, count=5)
        assert a.specs == b.specs
        c = FaultInjector.plan(seed=8, count=5)
        assert a.specs != c.specs  # overwhelmingly likely
        for spec in a.specs:
            assert spec.site in SITES and spec.action in ACTIONS

    def test_injecting_restores_previous(self):
        outer, inner = FaultInjector(), FaultInjector()
        assert faults.ACTIVE is None
        with injecting(outer):
            assert faults.ACTIVE is outer
            with injecting(inner):
                assert faults.ACTIVE is inner
            assert faults.ACTIVE is outer
        assert faults.ACTIVE is None

    def test_injecting_restores_on_exception(self):
        inj = FaultInjector([FaultSpec("tokens.drop.phase", hit=1)])
        st = BalancedOrientation(3)
        with pytest.raises(FaultInjected):
            with injecting(inj):
                st.insert_batch([(0, 1), (0, 2)])
        assert faults.ACTIVE is None


class TestActions:
    def test_delay_charges_cost_model(self):
        st = BalancedOrientation(3)
        inj = FaultInjector(
            [FaultSpec("tokens.drop.phase", hit=1, action="delay", delay_work=500)]
        )
        before = st.cm.snapshot()
        with injecting(inj):
            st.insert_batch([(0, 1), (1, 2)])
        after = st.cm.snapshot()
        assert after.work - before.work >= 500
        assert st.cm.counters.get("fault_delays") == 1
        st.check_invariants()  # delay never corrupts

    def test_corrupt_breaks_an_invariant(self):
        st = BalancedOrientation(2)
        st.insert_batch([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        inj = FaultInjector(
            [FaultSpec("tokens.drop.settle", hit=1, action="corrupt")], seed=3
        )
        with injecting(inj):
            st.insert_batch([(0, 3), (0, 4), (1, 4)])
        assert inj.fired, "corrupt spec never fired"
        assert st.cm.counters.get("fault_corruptions") == 1

    def test_raise_is_transient(self):
        """After the one-shot raise, the same batch succeeds on retry."""
        st = BalancedOrientation(3)
        inj = FaultInjector([FaultSpec("tokens.drop.phase", hit=1)])
        with injecting(inj):
            with pytest.raises(FaultInjected):
                st.insert_batch([(0, 1), (0, 2)])


class TestSiteCoverage:
    def test_substrate_sites_reachable(self):
        from repro.hashtable.batch_table import BatchHashTable

        for site, trigger in [
            ("hashtable.batch_set", lambda: BatchHashTable(items={1: 2})),
            (
                "hashtable.batch_delete",
                lambda: BatchHashTable(items={1: 2}).batch_delete([1]),
            ),
        ]:
            inj = FaultInjector([FaultSpec(site, hit=1)])
            with injecting(inj):
                with pytest.raises(FaultInjected):
                    trigger()
                    # constructors fire on the initial batch; deletes on their own
                    raise AssertionError(f"site {site} never fired")

    def test_token_and_bundle_sites_reachable(self):
        edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3)]
        for site in ("tokens.drop.phase", "tokens.drop.settle", "bundles.extract"):
            st = BalancedOrientation(2)
            inj = FaultInjector([FaultSpec(site, hit=1)])
            with injecting(inj):
                with pytest.raises(FaultInjected):
                    st.insert_batch(edges)
        for site in ("tokens.push.phase", "tokens.push.settle", "bundles.partition"):
            st = BalancedOrientation(2)
            st.insert_batch(edges)
            inj = FaultInjector([FaultSpec(site, hit=1)])
            with injecting(inj):
                with pytest.raises(FaultInjected):
                    st.delete_batch(edges[:4])
