"""Tests for scenario verdict runs: ``repro verify --scenario``, the
chaos trials and differential panel it runs, and the scenario CLI."""

import dataclasses

import pytest

from repro.cli import CONSTANTS, main
from repro.graphs.tracefile import iter_trace, scan_trace
from repro.instrument.metrics import ScenarioStats
from repro.instrument.telemetry import REGISTRY
from repro.resilience.chaos import chaos_soak
from repro.scenarios import (
    ScenarioParams,
    measured_stream,
    params_for,
    scenario_stream,
    suggested_height,
)
from repro.verify import run_diff


class TestSoak:
    def test_both_machineries_green_at_tiny_scale(self):
        params = params_for("tiny")
        ops, stats = measured_stream("sliding-window-churn", params)
        chaos = chaos_soak(
            "balanced", trials=2, params=params, faults_per_trial=1,
            H=suggested_height("sliding-window-churn", params),
            stream_kinds=["sliding-window-churn"],
        )
        diff = run_diff(ops, n=params.n)
        assert chaos.ok, chaos.render()
        assert diff.ok, diff.render()
        assert stats.batches == len(ops) > 0
        assert "GREEN" in chaos.render() and "GREEN" in diff.render()

    def test_chaos_only_mode_skips_diff(self, capsys):
        # --faults runs fault trials only, no differential panel
        rc = main(
            ["verify", "--scenario", "core-oscillation", "--scale", "tiny",
             "--structure", "balanced", "--faults", "1", "--trials", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "chaos soak [balanced @ core-oscillation]: GREEN" in out
        assert "differential replay" not in out

    def test_diff_only_mode_skips_chaos(self, capsys):
        # without --faults the scenario runs through the panel only, with
        # the scale's own n: the serial cost is run_diff's to the unit
        params = params_for("tiny", seed=2)
        ops, _ = measured_stream("skew-flip", params)
        direct = run_diff(ops, constants=CONSTANTS, seed=2, n=params.n)
        rc = main(["verify", "--scenario", "skew-flip", "--scale", "tiny", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0, out
        work, depth = direct.cost_totals["serial"]
        assert f"cost[serial]: work={work} depth={depth}" in out
        assert "chaos soak" not in out

    def test_misestimation_soak_uses_the_wrong_hint(self):
        wrong, honest = params_for("tiny"), params_for("tiny", hint_factor=1.0)
        H = suggested_height("hint-misestimation", wrong)
        assert H <= suggested_height("hint-misestimation", honest)
        report = chaos_soak(
            "balanced", trials=1, params=wrong, faults_per_trial=0, H=H,
            stream_kinds=["hint-misestimation"],
        )
        assert report.ok, report.render()  # wrong hint degrades cost, not correctness

    @pytest.mark.parametrize(
        "params",
        [params_for("tiny", seed=4), params_for("tiny", seed=4, window=2)],
        ids=["scale", "caller-params"],
    )
    def test_chaos_trials_replay_the_scale_stream(self, monkeypatch, params):
        # each chaos trial replays the scenario under the caller's params,
        # re-seeded per trial — the scale's window and any caller params hold
        import repro.resilience.chaos as chaos

        replayed = []
        real = chaos.run_diff

        def recording(ops, **kwargs):
            replayed.append(list(ops))
            return real(ops, **kwargs)

        monkeypatch.setattr(chaos, "run_diff", recording)
        report = chaos_soak(
            "balanced", seed=4, trials=2, faults_per_trial=1, params=params,
            stream_kinds=["sliding-window-churn"],
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

    def test_summary_table_lists_every_report(self, capsys):
        rc = main(
            ["verify", "--scenario", "all", "--scale", "tiny", "--structure",
             "balanced", "--faults", "1", "--trials", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        table = out[out.index("| structure"):]
        for name in ("skew-flip", "core-oscillation", "hint-misestimation",
                     "sliding-window-churn"):
            assert f"balanced @ {name}" in table
            assert f"scenario [{name} @ tiny]" in out

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
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("hint-misestimation", "sliding-window-churn"):
            assert name in out

    def test_soak_exit_code_green(self, capsys):
        rc = main(
            ["verify", "--scenario", "core-oscillation", "--scale", "tiny",
             "--structure", "balanced", "--trials", "1", "--faults", "1"]
        )
        assert rc == 0
        assert "GREEN" in capsys.readouterr().out

    def test_trace_out_spills_sealed_stream(self, tmp_path, capsys):
        out = tmp_path / "window.trace"
        rc = main(
            ["generate", "--scenario", "sliding-window-churn", "--scale",
             "tiny", "--seed", "5", "--out", str(out)]
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
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--scenario", "all", "--out", str(tmp_path / "x.trace")])
        assert exc.value.code == 2

    def test_chaos_cli_accepts_scenario_streams(self, capsys):
        # the chaos harness itself can rotate scenario streams
        report = chaos_soak(
            "balanced", trials=2,
            params=ScenarioParams(n=20, batches=8, batch_size=4),
            faults_per_trial=1, stream_kinds=["skew-flip", "sliding-window-churn"],
        )
        assert report.trials == 2
        assert report.ok, report.render()
