"""CLI behaviour: path validation, prefix select, statistics, baseline
round-trips, the summary cache, autofix idempotence, and SARIF output."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import Baseline, lint_paths
from repro.analysis.cache import SummaryCache
from repro.analysis.cli import main

DIRTY = """\
'''Fixture.'''


def answers(n):
    '''Doc.'''
    live = {i for i in range(n)}
    return [v * 2 for v in live]
"""

CLEAN = """\
'''Fixture.'''


def answers(n):
    '''Doc.'''
    return list(range(n))
"""


@pytest.fixture()
def sandbox(tmp_path, monkeypatch):
    """Run the CLI from an isolated cwd so the repo baseline/cache stay out."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestPathValidation:
    def test_missing_path_exits_2(self, sandbox, capsys):
        assert main(["nope/missing.py", "--no-cache"]) == 2
        assert "path does not exist: nope/missing.py" in capsys.readouterr().err

    def test_non_python_file_exits_2(self, sandbox, capsys):
        (sandbox / "notes.txt").write_text("not code\n")
        assert main(["notes.txt", "--no-cache"]) == 2
        assert "not a Python file or directory" in capsys.readouterr().err


class TestSelect:
    def test_unknown_prefix_exits_2(self, sandbox, capsys):
        (sandbox / "m.py").write_text(CLEAN)
        assert main(["m.py", "--select", "REP-ZZ", "--no-cache"]) == 2
        assert "unknown rule id(s) or prefix(es): REP-ZZ" in capsys.readouterr().err

    def test_family_prefix_selects_members(self, sandbox, capsys):
        (sandbox / "m.py").write_text(
            "'''Fixture.'''\nimport random\n\n\ndef pick(xs):\n"
            "    '''Doc.'''\n    return random.choice(xs)\n"
        )
        assert main(["m.py", "--select", "REP-D", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "REP-D001" in out

    def test_list_rules_includes_interprocedural_families(self, sandbox, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = {line.split()[0] for line in out.splitlines() if line}
        assert {"REP-CF001", "REP-X001", "REP-X002", "REP-DT001",
                "REP-DT002"} <= listed


class TestStatistics:
    def test_counts_per_rule(self, sandbox, capsys):
        (sandbox / "m.py").write_text(DIRTY)
        assert main(["m.py", "--statistics", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "REP-DT001" in out
        assert "total" in out


class TestBaseline:
    def test_update_then_clean_exit(self, sandbox, capsys):
        (sandbox / "m.py").write_text(DIRTY)
        assert main(["m.py", "--update-baseline", "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["m.py", "--no-cache"]) == 0
        assert "baselined" in capsys.readouterr().out

    def test_round_trip_preserves_justifications(self, sandbox, capsys):
        (sandbox / "m.py").write_text(DIRTY)
        assert main(["m.py", "--update-baseline", "--no-cache"]) == 0
        payload = json.loads((sandbox / ".reprolint-baseline.json").read_text())
        for entry in payload["entries"]:
            entry["justification"] = "accepted: fixture exercises the sink"
        (sandbox / ".reprolint-baseline.json").write_text(json.dumps(payload))
        assert main(["m.py", "--update-baseline", "--no-cache"]) == 0
        payload = json.loads((sandbox / ".reprolint-baseline.json").read_text())
        assert all(
            e["justification"] == "accepted: fixture exercises the sink"
            for e in payload["entries"]
        )

    def test_no_baseline_reports_everything(self, sandbox, capsys):
        (sandbox / "m.py").write_text(DIRTY)
        assert main(["m.py", "--update-baseline", "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["m.py", "--no-baseline", "--no-cache"]) == 1

    def test_corrupt_baseline_exits_2(self, sandbox, capsys):
        (sandbox / "m.py").write_text(CLEAN)
        (sandbox / ".reprolint-baseline.json").write_text("{not json")
        assert main(["m.py", "--no-cache"]) == 2
        assert "reprolint:" in capsys.readouterr().err


class TestCache:
    def test_second_run_hits(self, sandbox):
        (sandbox / "m.py").write_text(DIRTY)
        cache_dir = str(sandbox / "cache")
        cold = SummaryCache(cache_dir)
        lint_paths([str(sandbox / "m.py")], cache=cold)
        assert cold.misses >= 1 and cold.hits == 0
        warm = SummaryCache(cache_dir)
        first = lint_paths([str(sandbox / "m.py")], cache=warm)
        assert warm.hits >= 1
        assert [f.rule for f in first.findings] == ["REP-DT001"]

    def test_corrupt_entry_is_a_miss_not_an_error(self, sandbox):
        (sandbox / "m.py").write_text(DIRTY)
        cache_dir = sandbox / "cache"
        lint_paths([str(sandbox / "m.py")], cache=SummaryCache(str(cache_dir)))
        corrupted = 0
        for root, _dirs, files in os.walk(cache_dir):
            for name in files:
                if name.endswith(".pickle"):
                    with open(os.path.join(root, name), "wb") as fh:
                        fh.write(b"\x80garbage")
                    corrupted += 1
        assert corrupted >= 1
        cache = SummaryCache(str(cache_dir))
        report = lint_paths([str(sandbox / "m.py")], cache=cache)
        assert cache.hits == 0 and cache.misses >= 1
        assert [f.rule for f in report.findings] == ["REP-DT001"]

    def test_edit_invalidates_entry(self, sandbox):
        target = sandbox / "m.py"
        target.write_text(DIRTY)
        cache_dir = str(sandbox / "cache")
        lint_paths([str(target)], cache=SummaryCache(cache_dir))
        target.write_text(CLEAN)
        cache = SummaryCache(cache_dir)
        report = lint_paths([str(target)], cache=cache)
        assert cache.hits == 0
        assert report.findings == []


class TestAutofix:
    def test_fix_applies_and_is_idempotent(self, sandbox, capsys):
        target = sandbox / "m.py"
        target.write_text(DIRTY)
        assert main(["m.py", "--fix", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "fixed 1 site(s)" in out
        assert "for v in sorted(live)" in target.read_text()
        fixed_once = target.read_text()
        assert main(["m.py", "--fix", "--no-cache"]) == 0
        assert "fixed" not in capsys.readouterr().out
        assert target.read_text() == fixed_once


class TestSarif:
    def test_output_is_valid_sarif(self, sandbox, capsys):
        (sandbox / "m.py").write_text(DIRTY)
        assert main(["m.py", "--format", "sarif", "--no-cache"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        run = doc["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        rule_ids = [r["id"] for r in rules]
        assert "REP-DT001" in rule_ids
        (result,) = run["results"]
        assert result["ruleId"] == "REP-DT001"
        assert result["ruleIndex"] == rule_ids.index("REP-DT001")
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "m.py"
        assert loc["region"]["startLine"] == 7

    def test_clean_tree_has_empty_results(self, sandbox, capsys):
        (sandbox / "m.py").write_text(CLEAN)
        assert main(["m.py", "--format", "sarif", "--no-cache"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []


class TestForwarding:
    def test_repro_lint_forwards_flags(self, sandbox, capsys):
        from repro.cli import main as repro_main

        (sandbox / "m.py").write_text(DIRTY)
        assert repro_main(["lint", "m.py", "--no-baseline", "--no-cache"]) == 1
        assert "REP-DT001" in capsys.readouterr().out

    def test_repro_lint_propagates_usage_errors(self, sandbox, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint", "missing.py", "--no-cache"]) == 2


def test_baseline_write_is_deterministic(tmp_path):
    path = tmp_path / "b.json"
    from repro.analysis import Finding

    findings = [
        Finding("b.py", 9, "REP-DT001", "m2"),
        Finding("a.py", 3, "REP-P001", "m1"),
        Finding("a.py", 7, "REP-P001", "m1"),  # dup entry collapses
    ]
    base = Baseline(path=str(path))
    count = base.write(str(path), findings)
    assert count == 2
    first = path.read_text()
    base2 = Baseline.load(str(path))
    base2.write(str(path), findings)
    assert path.read_text() == first
