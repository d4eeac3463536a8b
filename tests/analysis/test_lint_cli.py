"""CLI behaviour: path validation, prefix select, the rule list, and a
seeded violation of every rule family failing the gate."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.cli import main

CLEAN = """\
'''Fixture.'''


def answers(n):
    '''Doc.'''
    return list(range(n))
"""

#: the rules reprolint keeps; each guards a contract with no runtime gate.
KEPT_RULES = {
    "REP-C001", "REP-C002", "REP-C003", "REP-CF001",
    "REP-D001", "REP-D002", "REP-D003", "REP-DT001", "REP-DT002",
    "REP-O001", "REP-O002", "REP-O003",
    "REP-R001", "REP-R002", "REP-R003",
    "REP-X001", "REP-X002",
}

#: rule -> one seeded violation; written under core/ so the cost-scoped
#: rules (REP-C*, REP-CF*, REP-O001/O002) apply.
SEEDED = {
    "REP-C001": """
        class Table:
            def __init__(self, cm):
                self.cm = cm
                self.data = {}

            def put(self, key, value):
                '''Store one entry.'''
                self.data[key] = value
    """,
    "REP-CF001": """
        class Structure:
            def __init__(self, cm):
                self.cm = cm
                self.data = {}

            def insert_batch(self, items):
                '''Doc.'''
                if not items:
                    self.data["last"] = 0
                    return
                self.cm.charge(work=len(items), depth=1)
                self.data["last"] = len(items)
    """,
    "REP-D001": """
        import random


        def pick(xs):
            '''Doc.'''
            return random.choice(xs)
    """,
    "REP-DT001": """
        def answers(n):
            '''Doc.'''
            live = {i for i in range(n)}
            return [v * 2 for v in live]
    """,
    "REP-O001": """
        from ..instrument import trace as _trace


        def drop():
            '''Doc.'''
            with _trace.span("game.dorp"):
                pass
    """,
    "REP-R001": """
        def phase(cm, vertices):
            '''One phase.'''
            changed = False
            with cm.parallel() as region:
                for v in sorted(vertices):
                    with region.branch():
                        changed = True
            return changed
    """,
    "REP-X002": """
        class Plain:
            def __init__(self):
                self.stuff = []


        def apply(batch):
            '''Doc.'''
            st = Plain()
            with guarded(st):
                st.stuff.append(batch)
    """,
}


@pytest.fixture()
def sandbox(tmp_path, monkeypatch):
    """Run the CLI from an isolated cwd so relative paths stay in tmp."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestPathValidation:
    def test_missing_path_exits_2(self, sandbox, capsys):
        assert main(["nope/missing.py"]) == 2
        assert "path does not exist: nope/missing.py" in capsys.readouterr().err

    def test_non_python_file_exits_2(self, sandbox, capsys):
        (sandbox / "notes.txt").write_text("not code\n")
        assert main(["notes.txt"]) == 2
        assert "not a Python file or directory" in capsys.readouterr().err


class TestSelect:
    def test_unknown_prefix_exits_2(self, sandbox, capsys):
        (sandbox / "m.py").write_text(CLEAN)
        assert main(["m.py", "--select", "REP-ZZ"]) == 2
        assert "unknown rule id(s) or prefix(es): REP-ZZ" in capsys.readouterr().err

    def test_family_prefix_selects_members(self, sandbox, capsys):
        (sandbox / "m.py").write_text(
            "'''Fixture.'''\nimport random\n\n\ndef pick(xs):\n"
            "    '''Doc.'''\n    return random.choice(xs)\n"
        )
        assert main(["m.py", "--select", "REP-D"]) == 1
        out = capsys.readouterr().out
        assert "REP-D001" in out

    def test_list_rules_includes_interprocedural_families(self, sandbox, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines() if line]
        assert listed == sorted(KEPT_RULES)


@pytest.mark.parametrize("rule", sorted(SEEDED))
def test_seeded_violation_fails_the_gate(sandbox, capsys, rule):
    (sandbox / "core").mkdir()
    target = sandbox / "core" / "m.py"
    target.write_text("'''Fixture.'''\n" + textwrap.dedent(SEEDED[rule]))
    assert main([str(target)]) == 1
    assert f" {rule} " in capsys.readouterr().out
    family = rule.rstrip("0123456789")
    assert main([str(target), "--select", family]) == 1
