"""Tests for the differential replay harness (repro verify diff)."""

import pytest

from repro.config import Constants
from repro.errors import ParameterError
from repro.graphs import streams
from repro.verify import differential
from repro.verify.audits import AuditReport
from repro.verify.differential import (
    KINDS,
    RunnerConfig,
    configs_by_name,
    default_configs,
    minimize_diff,
    run_diff,
)

SMALL = Constants(sample_c=0.5, min_B=4, duplication_cap=8)


class TestRunnerConfig:
    def test_dict_round_trip(self):
        for cfg in default_configs():
            assert RunnerConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_preserves_none_cost_class(self):
        cfg = RunnerConfig("x", faults=(("tokens.drop.phase", 2, "raise"),),
                           cost_class=None)
        back = RunnerConfig.from_dict(cfg.to_dict())
        assert back.cost_class is None
        assert back.faults == cfg.faults

    def test_configs_by_name_selects_in_order(self):
        panel = configs_by_name(["serial", "chaos-recovered"])
        assert [c.name for c in panel] == ["serial", "chaos-recovered"]

    # "rung-skip" was a panel member until rung deferral was removed; an
    # old ``--configs rung-skip`` must fail loudly, naming the survivors.
    @pytest.mark.parametrize("name", ["warp-drive", "rung-skip"])
    def test_configs_by_name_rejects_unknown(self, name):
        with pytest.raises(ParameterError, match="known: .*'serial'"):
            configs_by_name(["serial", name])


class TestRunDiff:
    def test_green_across_serial_telemetry(self):
        ops = streams.churn(16, steps=12, batch_size=4, seed=2)
        panel = configs_by_name(["serial", "telemetry"])
        report = run_diff(ops, configs=panel, eps=0.4, constants=SMALL,
                          seed=2, n=16, deep_every=6)
        assert report.ok, report.render()
        assert report.batches == len(ops)
        # telemetry shares the exact cost class: bit-identical totals
        assert report.cost_totals["telemetry"] == report.cost_totals["serial"]

    def test_chaos_recovered_matches_baseline_answers(self):
        ops = streams.churn(14, steps=10, batch_size=4, seed=6)
        panel = configs_by_name(["serial", "chaos-recovered"])
        report = run_diff(ops, configs=panel, eps=0.4, constants=SMALL,
                          seed=6, n=14)
        assert report.ok, report.render()

    def test_unrecovered_fault_is_a_divergence(self):
        ops = streams.churn(16, steps=10, batch_size=4, seed=3)
        panel = [
            RunnerConfig("serial"),
            RunnerConfig("injected",
                         faults=(("tokens.drop.phase", 2, "raise"),),
                         cost_class=None),
        ]
        report = run_diff(ops, configs=panel, eps=0.4, constants=SMALL,
                          seed=3, n=16)
        assert not report.ok
        assert report.implicated == {"injected"}
        assert any(d.observable == "exception" for d in report.divergences)
        # one report per dead config, not one per remaining batch
        assert len([d for d in report.divergences if d.config == "injected"]) == 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_structure_kind_runs_the_panel(self, kind):
        ops = streams.churn(14, steps=8, batch_size=4, seed=4)
        report = run_diff(ops, kind=kind, H=3, eps=0.4, constants=SMALL,
                          seed=4, n=14, deep_every=4)
        assert report.ok, report.render()
        assert report.cost_totals["telemetry"] == report.cost_totals["serial"]
        assert report.faults_fired == {"chaos-recovered": 1}
        assert report.recovery["chaos-recovered"].counts.get("rollback") == 1

    def test_empty_panel_rejected(self):
        with pytest.raises(ParameterError):
            run_diff([], configs=[])


class TestMinimizeDiff:
    def test_injected_fault_shrinks_to_tiny_repro(self):
        ops = streams.churn(16, steps=20, batch_size=5, seed=3)
        panel = [
            RunnerConfig("serial"),
            RunnerConfig("injected",
                         faults=(("tokens.drop.phase", 2, "raise"),),
                         cost_class=None),
        ]
        report = run_diff(ops, configs=panel, eps=0.4, constants=SMALL,
                          seed=3, n=16)
        assert not report.ok
        minimal, probe = minimize_diff(ops, report, configs=panel, eps=0.4,
                                       constants=SMALL, seed=3, n=16)
        # the ISSUE acceptance bound: the fault needs at most two batches
        assert 1 <= len(minimal) <= 2
        assert [c.name for c in probe] == ["serial", "injected"]
        # the shrunk stream still fails under the probe panel at the same n
        replay = run_diff(minimal, configs=probe, eps=0.4, constants=SMALL,
                          seed=3, n=16)
        assert not replay.ok


    def test_red_oracle_audit_keeps_deep_audits_in_probes(self, monkeypatch):
        # an oracle finding is a divergence of the audited config; the
        # probes must keep auditing or the shrunk stream would stop failing
        def red_if_any_edge(st, graph):
            report = AuditReport("coreness band")
            if graph.m:
                report.add("planted finding")
            return report

        monkeypatch.setattr(differential, "audit_coreness", red_if_any_edge)
        ops = streams.churn(12, steps=6, batch_size=3, seed=2)
        panel = configs_by_name(["serial", "telemetry"])
        report = run_diff(ops, configs=panel, eps=0.4, constants=SMALL,
                          seed=2, n=12, deep_every=3)
        assert {(d.config, d.observable) for d in report.divergences} == {
            ("serial", "oracle audit")
        }
        minimal, probe = minimize_diff(ops, report, configs=panel, eps=0.4,
                                       constants=SMALL, seed=2, n=12,
                                       deep_every=3)
        # three one-edge batches: the audit only fires on every third batch
        assert [op.size for op in minimal] == [1, 1, 1]
        assert [c.name for c in probe] == ["serial"]


class TestChargePins:
    def test_chaos_recovered_cost_pinned(self):
        """The recovered member's model cost on a short churn stream.

        The planned fault fires inside the coreness ladder, so the pin
        covers one tier-1 rollback and retry; a change to how the
        recovery manager captures, rolls back or retries moves it.
        """
        ops = streams.churn(14, steps=10, batch_size=4, seed=6)
        panel = configs_by_name(["serial", "chaos-recovered"])
        report = run_diff(ops, configs=panel, eps=0.4, constants=SMALL,
                          seed=6, n=14)
        assert report.ok, report.render()
        assert report.cost_totals["chaos-recovered"] == (1020823, 53817)
