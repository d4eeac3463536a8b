"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestGenerate:
    def test_insert_only(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        rc = main(
            [
                "generate", "--family", "er", "--n", "20", "--m", "40",
                "--pattern", "insert-only", "--batch-size", "10",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert out.exists()
        assert "wrote 4 batches" in capsys.readouterr().out

    def test_churn_pattern(self, tmp_path):
        out = tmp_path / "c.txt"
        rc = main(
            [
                "generate", "--pattern", "churn", "--n", "20",
                "--steps", "15", "--batch-size", "5", "--out", str(out),
            ]
        )
        assert rc == 0

    def test_planted_family(self, tmp_path):
        out = tmp_path / "p.txt"
        rc = main(
            [
                "generate", "--family", "planted", "--n", "24", "--m", "60",
                "--pattern", "insert-delete", "--batch-size", "12",
                "--out", str(out),
            ]
        )
        assert rc == 0


@pytest.fixture
def small_trace(tmp_path):
    out = tmp_path / "trace.txt"
    main(
        [
            "generate", "--family", "er", "--n", "16", "--m", "30",
            "--pattern", "insert-only", "--batch-size", "15", "--out", str(out),
        ]
    )
    return out


class TestRun:
    def test_both_modes(self, small_trace, capsys):
        rc = main(["run", "--trace", str(small_trace), "--mode", "both", "--eps", "0.4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rho_alg" in out
        assert "max core_alg" in out
        assert "work/edge" in out

    def test_coreness_only(self, small_trace, capsys):
        rc = main(["run", "--trace", str(small_trace), "--mode", "coreness", "--eps", "0.4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rho_alg" not in out


class TestExact:
    def test_reports_exact_measures(self, small_trace, capsys):
        rc = main(["exact", "--trace", str(small_trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max coreness" in out
        assert "exact rho" in out


class TestVerifyDiffInject:
    # exit 1 means "divergence caught" to CI, so a malformed spec or flag
    # combination must fail as a usage error (exit 2, one line) before any
    # replay starts
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "10", "--inject", "tokens.drop.phase:x"],
             "HIT must be an integer, got 'x'"),
            (["--n", "10", "--inject", "bogus.site:1:raise"],
             "unknown fault site 'bogus.site'"),
            (["--n", "10", "--inject", "tokens.drop.phase:1:explode"],
             "unknown fault action 'explode'"),
            ([], "pick one stream"),
            (["--n", "10", "--configs", "warp"], "unknown differential config(s) ['warp']"),
            (["--scenario", "nope"], "unknown scenario 'nope'"),
            (["--n", "4", "--faults", "1"], "scenario needs n >= 8, got 4"),
            (["--n", "10", "--deep-every", "-1"], "must be >= 0, got -1"),
            (["--n", "10", "--faults", "-2"], "must be >= 0, got -2"),
            (["--n", "10", "--faults", "1", "--trials", "-1"], "must be >= 0, got -1"),
            (["--replay", "a.json", "--n", "10"], "--replay takes no other flag, got --n"),
            (["--replay", "a.json", "--configs", "serial"],
             "--replay takes no other flag, got --configs"),
            (["--n", "10", "--faults", "1", "--configs", "serial"],
             "--faults runs fault trials; drop --configs"),
            (["--n", "10", "--faults", "1", "--inject", "tokens.drop.phase:3"],
             "--faults runs fault trials; drop --inject"),
            (["--trace", "t.txt", "--faults", "1"], "--faults runs fault trials; drop --trace"),
            (["--n", "10", "--faults", "1", "--eps", "0.2"],
             "--faults runs fault trials; drop --eps"),
            (["--trace", "t.txt", "--scenario", "skew-flip"], "pick one stream"),
            (["--scenario", "skew-flip", "--n", "10"], "pick one stream"),
            (["--n", "10", "--trials", "2"], "--trials needs --faults F > 0"),
            (["--n", "10", "--scale", "tiny"], "--scale needs --scenario"),
            (["--n", "10", "--structure", "btree"], "unknown structure in 'btree'"),
            (["--trace", "no/such/trace.txt"], "No such file or directory"),
        ],
        ids=[
            "bad-hit", "unknown-site", "unknown-action", "no-stream",
            "unknown-config", "unknown-scenario", "tiny-n", "negative-deep-every",
            "negative-faults", "negative-trials", "replay-with-stream",
            "replay-with-panel", "faults-with-configs", "faults-with-inject",
            "faults-with-trace", "faults-with-eps", "trace-and-scenario", "scenario-and-shape",
            "trials-without-faults", "scale-without-scenario", "unknown-structure",
            "missing-trace",
        ],
    )
    def test_malformed_spec_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no replay ran
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0]


class TestVerifyTrials:
    def test_trial_mode_matches_chaos_soak(self, capsys):
        # --faults runs chaos_soak's trials: same faults, same tiers, same table
        from repro.cli import CONSTANTS
        from repro.resilience.chaos import chaos_soak, render_soak_summary
        from repro.scenarios import ScenarioParams

        rc = main(
            ["verify", "--n", "16", "--batches", "8", "--batch-size", "4",
             "--seed", "3", "--structure", "balanced", "--faults", "1",
             "--trials", "2"]
        )
        out = capsys.readouterr().out
        direct = chaos_soak(
            "balanced", trials=2, seed=3, params=ScenarioParams(16, 8, 4),
            faults_per_trial=1, constants=CONSTANTS,
        )
        assert rc == 0 and direct.ok, out
        assert direct.faults_fired > 0
        assert direct.render() in out
        assert render_soak_summary([direct]) in out


class TestVerifyReplayMalformed:
    # exit 1 means "did NOT reproduce" to CI, so an artifact that cannot
    # be read must fail as a usage error (exit 2, one line), not a traceback
    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"configs": None}, "configs must be a non-empty list"),
            ({"version": 99}, "unsupported artifact version 99"),
            ({"kind": "chaos"}, "unknown artifact kind 'chaos'"),
        ],
        ids=["missing-configs", "wrong-version", "wrong-kind"],
    )
    def test_malformed_artifact_is_a_usage_error(self, tmp_path, capsys, edit, message):
        import json

        from repro.graphs.streams import BatchOp
        from repro.verify.artifact import write_artifact
        from repro.verify.differential import RunnerConfig

        path = write_artifact(
            tmp_path / "a.json",
            ops=[BatchOp("insert", ((0, 1),))],
            configs=[RunnerConfig("serial")],
            params={"n": 4},
        )
        payload = json.loads(path.read_text())
        for key, value in edit.items():
            if value is None:
                del payload[key]
            else:
                payload[key] = value
        path.write_text(json.dumps(payload))
        assert main(["verify", "--replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no replay ran
        errors = captured.err.splitlines()
        assert len(errors) == 1 and "error:" in errors[0] and message in errors[0]
