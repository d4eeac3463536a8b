"""`repro run`'s profiling flags (`--phase-tree`, `--bench-out`, `--prom`,
`--check`) and its telemetry flags, end to end."""

import json
import re

import pytest

from repro.cli import main
from repro.instrument.export import (
    parse_prometheus,
    read_jsonl,
    validate_bench_payload,
)


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "t.txt"
    rc = main(
        [
            "generate", "--family", "planted", "--n", "32", "--m", "90",
            "--pattern", "insert-delete", "--batch-size", "12",
            "--out", str(path),
        ]
    )
    assert rc == 0
    return path


class TestProfile:
    def test_phase_tree_sums_to_cost_model_total(self, trace_path, capsys):
        rc = main(
            ["run", "--trace", str(trace_path), "--mode", "coreness", "--phase-tree"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        match = re.search(
            r"phase-tree work (\d+) == cost-model work (\d+) \(exact\)", out
        )
        assert match, out
        assert match.group(1) == match.group(2)
        assert "ladder.rung" in out
        assert "(self" in out  # explicit self-accounting rows

    def test_check_passes_bit_identity(self, trace_path, capsys):
        rc = main(
            [
                "run", "--trace", str(trace_path), "--mode", "coreness",
                "--check",
            ]
        )
        assert rc == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_bench_and_prom_artifacts(self, trace_path, tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        rc = main(
            [
                "run", "--trace", str(trace_path), "--mode", "both",
                "--name", "smoke", "--bench-out", str(tmp_path),
                "--prom", str(prom), "--check",
            ]
        )
        assert rc == 0
        assert "bit-identical" in capsys.readouterr().out
        payload = json.loads((tmp_path / "BENCH_smoke.json").read_text())
        assert validate_bench_payload(payload) == []
        assert payload["name"] == "smoke"
        assert payload["batches"] > 0
        assert any("ladder.rung" in k for k in payload["phase_shares"])
        shares = payload["phase_shares"]
        total = shares["run"]["work"]
        assert total == payload["total_work"]
        assert sum(s["self_work"] for s in shares.values()) == total
        # the disarmed --check replay must not overwrite the armed numbers
        samples = parse_prometheus(prom.read_text())
        assert samples[("repro_work_total", ())] == payload["total_work"]

    def test_bad_name_is_rejected_before_replay(self, tmp_path, capsys):
        # The trace does not exist: a rejection that came after the replay
        # would surface as a TraceError/OSError, not this one-line exit.
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "run", "--trace", str(tmp_path / "missing.txt"),
                    "--name", "../../x", "--bench-out", str(tmp_path / "d"),
                ]
            )
        assert exc.value.code == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith(
            "repro run: error: --name '../../x' is not a plain file stem"
        )
        assert not (tmp_path / "d").exists()

    def test_telemetry_jsonl(self, trace_path, tmp_path):
        log = tmp_path / "events.jsonl"
        rc = main(
            [
                "run", "--trace", str(trace_path), "--mode", "coreness",
                "--phase-tree", "--telemetry", str(log),
            ]
        )
        assert rc == 0
        events = read_jsonl(log)
        assert events
        names = {e["name"] for e in events}
        assert {"batch", "structure", "ladder.rung"} <= names

    def test_every_sink_armed_keeps_bit_identity(self, trace_path, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        rc = main(
            [
                "run", "--trace", str(trace_path), "--mode", "both",
                "--telemetry", str(log), "--progress", "1", "--phase-tree",
                "--name", "all", "--bench-out", str(tmp_path), "--check",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "bit-identical" in captured.out
        assert "phase-tree work" in captured.out
        assert "[progress] batch 1/" in captured.err
        assert read_jsonl(log)
        assert (tmp_path / "BENCH_all.json").exists()

    def test_profile_is_an_unknown_command(self, trace_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--trace", str(trace_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'profile'" in capsys.readouterr().err


class TestRunFlags:
    def test_run_telemetry_flag(self, trace_path, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        rc = main(
            [
                "run", "--trace", str(trace_path), "--mode", "coreness",
                "--telemetry", str(log),
            ]
        )
        assert rc == 0
        assert "telemetry events" in capsys.readouterr().out
        assert read_jsonl(log)

    def test_run_progress_flag(self, trace_path, capsys):
        rc = main(
            [
                "run", "--trace", str(trace_path), "--mode", "coreness",
                "--progress", "2",
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        lines = [ln for ln in err.splitlines() if ln.startswith("[progress]")]
        assert lines
        assert all("work=" in ln and "depth=" in ln for ln in lines)

    def test_run_without_flags_stays_disarmed(self, trace_path, capsys):
        rc = main(["run", "--trace", str(trace_path), "--mode", "coreness"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "[progress]" not in captured.err
        assert "telemetry" not in captured.out
