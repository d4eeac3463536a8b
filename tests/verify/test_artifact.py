"""Tests for repro artifacts: write/read validation and replay round trips."""

import json

import pytest

from repro.config import Constants
from repro.errors import ParameterError
from repro.graphs import streams
from repro.scenarios import ScenarioParams
from repro.verify.artifact import (
    minimize_repro,
    read_artifact,
    replay_artifact,
    write_artifact,
)
from repro.verify.differential import RunnerConfig, minimize_diff, run_diff

SMALL = Constants(sample_c=0.5, min_B=4, duplication_cap=8)

DIFF_PANEL = [
    RunnerConfig("serial"),
    RunnerConfig("injected",
                 faults=(("tokens.drop.phase", 2, "raise"),),
                 cost_class=None),
]


class TestFormat:
    def test_read_rejects_non_artifact(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ParameterError):
            read_artifact(p)

    def test_read_rejects_future_version(self, tmp_path):
        p = tmp_path / "future.json"
        p.write_text(json.dumps(
            {"format": "repro-verify-repro", "version": 99, "kind": "diff"}
        ))
        with pytest.raises(ParameterError):
            read_artifact(p)

    def test_diff_artifact_requires_configs(self, tmp_path):
        with pytest.raises(ParameterError):
            write_artifact(tmp_path / "a.json", ops=[], configs=[], params={})

    def test_chaos_payload_rejected(self, tmp_path):
        # the retired v1 "chaos" kind: chaos failures are diff artifacts now
        p = tmp_path / "chaos.json"
        p.write_text(json.dumps({
            "format": "repro-verify-repro", "version": 1, "kind": "chaos",
            "stream": [["insert", [[0, 1]]]], "structure": "balanced",
            "faults": [["tokens.push.settle", 1, "corrupt"]],
            "params": {"n": 16, "H": 4, "injector_seed": 9}, "expected": {},
        }))
        with pytest.raises(ParameterError, match="unknown artifact kind 'chaos'"):
            read_artifact(p)

    def test_stream_round_trip(self, tmp_path):
        ops = streams.churn(10, steps=5, batch_size=3, seed=1)
        member = RunnerConfig("chaos", recovery=True,
                              faults=(("tokens.drop.phase", 1, "raise"),),
                              cost_class=None, injector_seed=7, audit_every=0)
        p = write_artifact(tmp_path / "rt.json", ops=ops, configs=[member],
                           params={"n": 10, "kind": "balanced"})
        payload = read_artifact(p)
        assert payload["stream"] == ops
        assert payload["kind"] == "diff"
        assert [RunnerConfig.from_dict(c) for c in payload["configs"]] == [member]


class TestDiffReplay:
    def test_minimized_diff_artifact_reproduces(self, tmp_path):
        ops = streams.churn(16, steps=15, batch_size=5, seed=3)
        report = run_diff(ops, configs=DIFF_PANEL, eps=0.4, constants=SMALL,
                          seed=3, n=16)
        assert not report.ok
        minimal, probe = minimize_diff(ops, report, configs=DIFF_PANEL,
                                       eps=0.4, constants=SMALL, seed=3, n=16)
        p = write_artifact(
            tmp_path / "diff.json", ops=minimal,
            params={"n": 16, "eps": 0.4, "seed": 3, "deep_every": 0},
            configs=probe, constants=SMALL,
            expected={"divergences": [d.render() for d in report.divergences]},
        )
        reproduced, text = replay_artifact(p)
        assert reproduced, text
        assert "RED" in text

    def test_green_panel_artifact_does_not_reproduce(self, tmp_path):
        ops = streams.churn(12, steps=6, batch_size=4, seed=5)
        p = write_artifact(
            tmp_path / "green.json", ops=ops,
            params={"n": 12, "eps": 0.4, "seed": 5},
            configs=[RunnerConfig("serial"),
                     RunnerConfig("telemetry", telemetry=True)],
            constants=SMALL,
        )
        reproduced, text = replay_artifact(p)
        assert not reproduced
        assert "GREEN" in text


class TestChaosReplay:
    # with per-batch audits disabled, a silent corruption survives to the
    # final audit — the scenario the chaos minimizer exists for.  A chaos
    # trial is a one-member panel whose member carries the fault plan and
    # its injector seed.
    MEMBER = RunnerConfig(
        "chaos", recovery=True,
        faults=(("tokens.push.settle", 1, "corrupt"),),
        cost_class=None, injector_seed=9, audit_every=0,
    )
    PARAMS = dict(kind="balanced", n=16, H=4, eps=0.35, seed=3, deep_every=1)

    def _ops(self):
        return streams.churn(16, 12, 4, seed=3)

    def test_minimize_trial_and_replay_round_trip(self, tmp_path):
        ops = self._ops()
        report = run_diff(ops, configs=[self.MEMBER], constants=SMALL,
                          **self.PARAMS)
        assert not report.ok, "corruption with audits off must reach the final audit"
        assert {d.observable for d in report.divergences} == {"final audit"}
        minimal, path = minimize_repro(ops, report, tmp_path / "chaos.json",
                                       configs=[self.MEMBER], constants=SMALL,
                                       **self.PARAMS)
        assert 1 <= len(minimal) <= 2
        payload = read_artifact(path)
        assert payload["configs"][0]["injector_seed"] == 9
        assert payload["params"] == self.PARAMS
        reproduced, text = replay_artifact(path)
        assert reproduced, text
        assert "final audit" in text

    def test_chaos_soak_minimize_writes_artifacts(self, tmp_path):
        # drive the soak's own minimize/artifact path with deterministic
        # failing trials: restrict the site pool so corruption can fire
        from repro.resilience.chaos import chaos_soak

        report = chaos_soak(
            "balanced", trials=3, seed=3,
            params=ScenarioParams(n=16, batches=10, batch_size=4),
            faults_per_trial=2, audit_every=0, constants=SMALL,
            sites=("tokens.push.settle", "tokens.drop.settle"),
            artifact_dir=tmp_path,
        )
        assert report.findings, report.render()
        # every trial's corrupted level reaches the final audit; none trips
        # an in-index assertion on the way (the in-index stores no level)
        assert len(report.repros) == 3, report.render()
        for path in report.repros:
            reproduced, text = replay_artifact(path)
            assert reproduced, text
