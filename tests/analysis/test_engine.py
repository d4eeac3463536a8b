"""Engine behaviour: discovery, scoping, suppression spans, reports, e2e."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

from repro.analysis import Finding, LintReport, lint_paths, lint_source
from repro.analysis.engine import in_cost_scope, iter_python_files

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")


def test_cost_scope_path_classification():
    assert in_cost_scope("src/repro/core/balanced.py")
    assert in_cost_scope("src/repro/hashtable/batch_table.py")
    assert not in_cost_scope("src/repro/apps/matching.py")
    assert not in_cost_scope("src/repro/graphs/streams.py")


def test_iter_python_files_skips_caches(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_text("")
    (tmp_path / "pkg.egg-info").mkdir()
    (tmp_path / "pkg.egg-info" / "SOURCES.py").write_text("x = 1\n")
    found = [os.path.basename(p) for p in iter_python_files([str(tmp_path)])]
    assert found == ["mod.py"]


def test_syntax_error_becomes_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    report = lint_paths([str(bad)])
    assert not report.ok
    assert report.findings[0].rule == "REP-E999"


def test_select_filters_rules():
    source = textwrap.dedent(
        """
        '''Module.'''
        import random


        def pick(items):
            return random.choice(items)
        """
    )
    only_d = lint_source(source, select=["REP-D001"])
    assert {f.rule for f in only_d} == {"REP-D001"}


def test_finding_and_report_render():
    report = LintReport(subject="unit")
    report.add(Finding("a.py", 3, "REP-X000", "boom"))
    report.files_checked = 1
    assert not report.ok
    rendered = report.render().splitlines()
    assert rendered[0] == "a.py:3: REP-X000 boom"
    assert rendered[-1] == "[1 finding(s)] unit (1 file(s)) — REP-X000: 1"


def test_def_line_suppression_covers_body():
    source = textwrap.dedent(
        """
        '''Module.'''


        def noisy(cm, vertices):  # reprolint: disable=REP-R001
            '''Racy by design (test fixture).'''
            flag = False
            with cm.parallel() as region:
                for v in sorted(vertices):
                    with region.branch():
                        flag = True
            return flag
        """
    )
    assert lint_source(source) == []


def test_bare_disable_suppresses_every_rule():
    source = textwrap.dedent(
        """
        '''Module.'''
        import random


        def pick(items):  # reprolint: disable
            '''Every rule is off for this function.'''
            return random.choice(items)
        """
    )
    assert lint_source(source) == []
    unsuppressed = source.replace("  # reprolint: disable", "")
    assert {f.rule for f in lint_source(unsuppressed)} == {"REP-D001"}


# ------------------------------------------------------------------- e2e


def test_cli_exits_zero_on_clean_tree():
    # tier-1's one whole-tree lint: the CI gate's command, REP-O003 included
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", SRC],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "[OK]" in proc.stdout


def test_cli_exits_nonzero_on_findings(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n\n\ndef pick(xs):\n    '''Pick.'''\n    return random.choice(xs)\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(bad)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 1
    first, summary = proc.stdout.splitlines()
    assert first.startswith(f"{bad}:6: REP-D001 ")
    assert summary.startswith("[1 finding(s)]")
