"""Tests for scenario soaks and the ``repro scenarios`` CLI."""

import dataclasses

import pytest

from repro.cli import main
from repro.graphs.tracefile import iter_trace, scan_trace
from repro.instrument.metrics import ScenarioStats
from repro.instrument.telemetry import REGISTRY
from repro.scenarios import (
    ScenarioParams,
    params_for,
    render_scenario_summary,
    scenario_stream,
    soak_scenario,
)


class TestSoak:
    def test_both_machineries_green_at_tiny_scale(self):
        report = soak_scenario(
            "sliding-window-churn", scale="tiny", trials=2, faults_per_trial=1
        )
        assert report.ok
        assert report.chaos is not None and report.chaos.ok
        assert report.diff is not None and report.diff.ok
        assert report.stats.batches > 0
        text = report.render()
        assert "GREEN" in text and "sliding-window-churn" in text

    def test_chaos_only_mode_skips_diff(self):
        report = soak_scenario(
            "core-oscillation", scale="tiny", mode="chaos", trials=1,
            faults_per_trial=1,
        )
        assert report.chaos is not None
        assert report.diff is None

    def test_diff_only_mode_skips_chaos(self):
        report = soak_scenario("core-oscillation", scale="tiny", mode="diff")
        assert report.chaos is None
        assert report.diff is not None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown soak mode"):
            soak_scenario("skew-flip", scale="tiny", mode="everything")

    def test_misestimation_soak_uses_the_wrong_hint(self):
        report = soak_scenario(
            "hint-misestimation", scale="tiny", mode="chaos", trials=1,
            faults_per_trial=0,
        )
        honest = soak_scenario(
            "hint-misestimation", scale="tiny", mode="chaos", trials=1,
            faults_per_trial=0,
            params=params_for("tiny", hint_factor=1.0),
        )
        assert report.suggested_H <= honest.suggested_H
        assert report.ok  # wrong hint degrades cost, not correctness

    @pytest.mark.parametrize(
        "params",
        [params_for("tiny", seed=4), params_for("tiny", seed=4, window=2)],
        ids=["scale", "caller-params"],
    )
    def test_chaos_trials_replay_the_scale_stream(self, monkeypatch, params):
        # each chaos trial replays the scenario under the soak's own params,
        # re-seeded per trial — the scale's window and any caller params hold
        import repro.resilience.chaos as chaos

        replayed = []
        real = chaos.run_diff

        def recording(ops, **kwargs):
            replayed.append(list(ops))
            return real(ops, **kwargs)

        monkeypatch.setattr(chaos, "run_diff", recording)
        report = soak_scenario(
            "sliding-window-churn", seed=4, mode="chaos", trials=2,
            faults_per_trial=1, params=params,
        )
        assert report.ok, report.render()
        expected = [
            list(scenario_stream(
                "sliding-window-churn",
                dataclasses.replace(params, seed=4 * 7919 + trial),
            ))
            for trial in range(2)
        ]
        assert replayed == expected

    def test_summary_table_lists_every_report(self):
        reports = [
            soak_scenario(name, scale="tiny", mode="diff")
            for name in ("skew-flip", "core-oscillation")
        ]
        table = render_scenario_summary(reports)
        assert "skew-flip" in table and "core-oscillation" in table
        assert "diff" in table

    def test_stats_published_to_registry(self):
        REGISTRY.clear()
        stats = ScenarioStats(scenario="probe")
        stats.observe("insert", 5)
        stats.observe("delete", 2)
        assert stats.max_live_edges == 5
        assert stats.live_edges == 3
        assert (
            REGISTRY.counter("repro_scenario_batches_total", scenario="probe").value
            == 2
        )
        assert (
            REGISTRY.counter(
                "repro_scenario_edge_updates_total", scenario="probe"
            ).value
            == 7
        )


class TestScenariosCli:
    def test_list(self, capsys):
        assert main(["scenarios", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("hint-misestimation", "sliding-window-churn"):
            assert name in out

    def test_soak_exit_code_green(self, capsys):
        rc = main(
            ["scenarios", "--scenario", "core-oscillation", "--scale", "tiny",
             "--trials", "1", "--faults", "1"]
        )
        assert rc == 0
        assert "GREEN" in capsys.readouterr().out

    def test_trace_out_spills_sealed_stream(self, tmp_path, capsys):
        out = tmp_path / "window.trace"
        rc = main(
            ["scenarios", "--scenario", "sliding-window-churn", "--scale",
             "tiny", "--seed", "5", "--trace-out", str(out)]
        )
        assert rc == 0
        assert "spilled" in capsys.readouterr().out
        expected = list(
            scenario_stream("sliding-window-churn", params_for("tiny", seed=5))
        )
        assert list(iter_trace(out, strict=True)) == expected
        info = scan_trace(out, strict=True)
        assert info.batches == len(expected)

    def test_trace_out_requires_explicit_scenario(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["scenarios", "--trace-out", str(tmp_path / "x.trace")])

    def test_chaos_cli_accepts_scenario_streams(self, capsys):
        # satellite: the chaos harness itself can rotate scenario streams
        from repro.resilience.chaos import chaos_soak

        report = chaos_soak(
            "balanced", trials=2,
            params=ScenarioParams(n=20, batches=8, batch_size=4),
            faults_per_trial=1, stream_kinds=["skew-flip", "sliding-window-churn"],
        )
        assert report.trials == 2
        assert report.ok, report.render()
