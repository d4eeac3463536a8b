"""Seeded-violation fixtures for each interprocedural rule family.

Each family gets a positive fixture (the violation is caught) and a
negative twin (the compliant version stays clean), exercised through
``lint_source`` so suppression and select plumbing are covered too.
"""

from __future__ import annotations

import textwrap

from repro.analysis import lint_paths, lint_source


def _rules(source: str, select=None, **kwargs) -> set[str]:
    findings = lint_source(
        textwrap.dedent(source), select=select, **kwargs
    )
    return {f.rule for f in findings}


class TestChargePath:
    """REP-CF001: a mutating entry->return path with no charge."""

    def test_uncharged_early_out_is_caught(self):
        assert "REP-CF001" in _rules(
            """
            '''Fixture.'''


            class Structure:
                '''Doc.'''

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
            select=["REP-CF"],
        )

    def test_charged_on_all_paths_is_clean(self):
        assert "REP-CF001" not in _rules(
            """
            '''Fixture.'''


            class Structure:
                '''Doc.'''

                def __init__(self, cm):
                    self.cm = cm
                    self.data = {}

                def insert_batch(self, items):
                    '''Doc.'''
                    self.cm.charge(work=len(items) + 1, depth=1)
                    if not items:
                        self.data["last"] = 0
                        return
                    self.data["last"] = len(items)
            """,
            select=["REP-CF"],
        )

    def test_cm_none_guard_idiom_is_clean(self):
        assert "REP-CF001" not in _rules(
            """
            '''Fixture.'''


            class Structure:
                '''Doc.'''

                def __init__(self, cm=None):
                    self.cm = cm
                    self.data = {}

                def set(self, key, value):
                    '''Doc.'''
                    if self.cm is not None:
                        self.cm.charge(work=1, depth=1)
                    self.data[key] = value
            """,
            select=["REP-CF"],
        )

    def test_raise_paths_are_exempt(self):
        assert "REP-CF001" not in _rules(
            """
            '''Fixture.'''


            class Structure:
                '''Doc.'''

                def __init__(self, cm):
                    self.cm = cm
                    self.data = {}

                def insert_batch(self, items):
                    '''Doc.'''
                    self.data["journal"] = list(items)
                    if not items:
                        raise ValueError("empty batch")
                    self.cm.charge(work=len(items), depth=1)
            """,
            select=["REP-CF"],
        )


class TestExceptionSafety:
    """REP-X001/X002: guarded() regions and snapshot capability."""

    def test_uncapturable_target_is_caught(self):
        assert "REP-X002" in _rules(
            """
            '''Fixture.'''


            class Plain:
                '''No capture fingerprint.'''

                def __init__(self):
                    self.stuff = []


            def apply(batch):
                '''Doc.'''
                st = Plain()
                with guarded(st):
                    st.stuff.append(batch)
            """,
            select=["REP-X"],
        )

    def test_fingerprinted_target_is_clean(self):
        assert "REP-X002" not in _rules(
            """
            '''Fixture.'''


            class Ladder:
                '''Doc.'''

                def __init__(self):
                    self.rungs = []


            def apply(batch):
                '''Doc.'''
                st = Ladder()
                with guarded(st):
                    st.rungs.append(batch)
            """,
            select=["REP-X"],
        )

    def test_class_from_outside_the_linted_paths_is_unresolved(self, tmp_path):
        # linted on its own, the file cannot see BalancedOrientation's
        # source: both regions are unresolved, so neither is a finding
        path = tmp_path / "test_guarded_alone.py"
        path.write_text(textwrap.dedent(
            """
            '''Fixture.'''

            from repro.core import BalancedOrientation
            from repro.resilience import guarded


            def test_two_regions():
                '''Doc.'''
                st = BalancedOrientation(H=3)
                with guarded(st):
                    st.insert_batch([(0, 1)])
                with guarded(st):
                    st.delete_batch([(0, 1)])
            """
        ))
        report = lint_paths([str(path)], select=["REP-X"])
        assert [f.rule for f in report.findings] == []

    def test_alien_param_write_in_region_is_caught(self):
        assert "REP-X001" in _rules(
            """
            '''Fixture.'''


            class Ladder:
                '''Doc.'''

                def __init__(self):
                    self.rungs = []

                def apply(self, batch, journal):
                    '''Doc.'''
                    with guarded(self):
                        self.rungs.append(batch)
                        journal.append(batch)
            """,
            select=["REP-X"],
        )

    def test_region_local_scratch_is_clean(self):
        assert "REP-X001" not in _rules(
            """
            '''Fixture.'''


            class Ladder:
                '''Doc.'''

                def __init__(self):
                    self.rungs = []

                def apply(self, batch):
                    '''Doc.'''
                    with guarded(self):
                        staged = []
                        staged.append(batch)
                        self.rungs.append(staged)
            """,
            select=["REP-X"],
        )


class TestDeterminismTaint:
    """REP-DT001/DT002: unordered values reaching answers."""

    def test_set_iteration_into_return_is_caught(self):
        rules = _rules(
            """
            '''Fixture.'''


            def answers(n):
                '''Doc.'''
                live = {i for i in range(n)}
                return [v * 2 for v in live]
            """,
            select=["REP-DT"],
        )
        assert rules == {"REP-DT001"}

    def test_identity_in_return_is_caught(self):
        assert "REP-DT002" in _rules(
            """
            '''Fixture.'''


            def token(payload):
                '''Doc.'''
                return id(payload)
            """,
            select=["REP-DT"],
        )

    def test_sorted_iteration_is_clean(self):
        assert _rules(
            """
            '''Fixture.'''


            def answers(n):
                '''Doc.'''
                live = {i for i in range(n)}
                return [v * 2 for v in sorted(live)]
            """,
            select=["REP-DT"],
        ) == set()

    def test_interprocedural_unordered_return(self):
        rules = _rules(
            """
            '''Fixture.'''


            def _dirty(n):
                '''Doc.'''
                touched = set()
                touched.add(n)
                return touched


            def answers(n):
                '''Doc.'''
                out = []
                for v in _dirty(n):
                    out.append(v)
                return out
            """,
            select=["REP-DT"],
        )
        assert rules == {"REP-DT001"}

    def test_suppression_covers_taint_rule(self):
        assert _rules(
            """
            '''Fixture.'''


            def answers(n):  # reprolint: disable=REP-DT
                '''Doc.'''
                live = {i for i in range(n)}
                return [v * 2 for v in live]
            """,
            select=["REP-DT"],
        ) == set()
