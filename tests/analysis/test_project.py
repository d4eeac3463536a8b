"""Whole-program model: module naming, call-graph resolution, fixpoints,
taint propagation, capture-capability — over synthetic fixture packages."""

from __future__ import annotations

import pathlib
import textwrap

from repro.analysis.project import (
    ProjectContext,
    module_name_for,
    summarize_module,
)


def build_project(tmp_path, files: dict) -> ProjectContext:
    """Write a fixture package and summarize every module into a project."""
    summaries = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    for rel in files:
        path = tmp_path / rel
        summaries.append(summarize_module(str(path), path.read_text()))
    return ProjectContext(summaries)


class TestModuleNaming:
    def test_walks_up_through_init_files(self, tmp_path):
        (tmp_path / "pkg" / "sub").mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (tmp_path / "pkg" / "sub" / "__init__.py").write_text("")
        (tmp_path / "pkg" / "sub" / "mod.py").write_text("x = 1\n")
        name, is_pkg = module_name_for(str(tmp_path / "pkg" / "sub" / "mod.py"))
        assert name == "pkg.sub.mod" and not is_pkg
        name, is_pkg = module_name_for(str(tmp_path / "pkg" / "sub" / "__init__.py"))
        assert name == "pkg.sub" and is_pkg

    def test_bare_file_outside_package(self, tmp_path):
        (tmp_path / "script.py").write_text("x = 1\n")
        name, is_pkg = module_name_for(str(tmp_path / "script.py"))
        assert name == "script" and not is_pkg


class TestCallGraph:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/helpers.py": """
            def charge_it(cm, k):
                cm.charge(work=k, depth=1)

            def idle():
                return 0
            """,
        "pkg/mod.py": """
            from .helpers import charge_it
            from pkg import helpers

            def pub(cm, items):
                charge_it(cm, len(items))

            def via_attr(cm):
                helpers.charge_it(cm, 1)

            def cold():
                return helpers.idle()
            """,
    }

    def test_relative_import_resolution(self, tmp_path):
        project = build_project(tmp_path, self.FILES)
        mod = project.modules["pkg.mod"]
        pub = mod.functions["pub"]
        site = next(s for s in pub.calls if s.name == "charge_it")
        callee = project.resolve_call(pub, site)
        assert callee is not None and callee.qualname == "charge_it"
        assert callee.module == "pkg.helpers"

    def test_module_attr_chain_resolution(self, tmp_path):
        project = build_project(tmp_path, self.FILES)
        via = project.modules["pkg.mod"].functions["via_attr"]
        site = next(s for s in via.calls if s.name == "charge_it")
        assert project.resolve_call(via, site) is not None

    def test_may_charge_fixpoint_crosses_modules(self, tmp_path):
        project = build_project(tmp_path, self.FILES)
        mod = project.modules["pkg.mod"]
        assert mod.functions["pub"].may_charge
        assert mod.functions["via_attr"].may_charge
        assert not mod.functions["cold"].may_charge


class TestMethodResolution:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/base.py": """
            class Base:
                def _bump(self):
                    self.cm.tick("bump")
            """,
        "pkg/derived.py": """
            from .base import Base

            class Derived(Base):
                def __init__(self, cm):
                    self.cm = cm
                    self.data = {}

                def apply(self, items):
                    self.data.update(items)
                    self._bump()
            """,
    }

    def test_self_method_resolves_through_inheritance(self, tmp_path):
        project = build_project(tmp_path, self.FILES)
        apply_fs = project.modules["pkg.derived"].functions["Derived.apply"]
        site = next(s for s in apply_fs.calls if s.name == "_bump")
        callee = project.resolve_call(apply_fs, site)
        assert callee is not None and callee.qualname == "Base._bump"
        assert apply_fs.may_charge and apply_fs.may_mutate

    def test_class_has_cm_through_inheritance(self, tmp_path):
        project = build_project(tmp_path, self.FILES)
        assert project.class_has_cm("pkg.derived", "Derived")


class TestTaintPropagation:
    def _fs(self, tmp_path, body: str, name="f"):
        project = build_project(tmp_path, {"mod.py": body})
        return project, project.modules["mod"].functions[name]

    def test_set_iteration_taints_through_accumulation(self, tmp_path):
        _, fs = self._fs(
            tmp_path,
            """
            def f(n):
                live = {i for i in range(n)}
                out = []
                for v in live:
                    out.append(v * 2)
                return out
            """,
        )
        assert any(t.rule == "REP-DT001" for t in fs.taint_findings)

    def test_sorted_sanitizes(self, tmp_path):
        _, fs = self._fs(
            tmp_path,
            """
            def f(n):
                live = {i for i in range(n)}
                out = []
                for v in sorted(live):
                    out.append(v * 2)
                return out
            """,
        )
        assert fs.taint_findings == []

    def test_private_functions_have_no_return_sink(self, tmp_path):
        _, fs = self._fs(
            tmp_path,
            """
            def _f(n):
                live = {i for i in range(n)}
                return [v for v in live]
            """,
            name="_f",
        )
        assert fs.taint_findings == []

    def test_returns_unordered_fact(self, tmp_path):
        _, fs = self._fs(
            tmp_path,
            """
            def f(n):
                touched = set()
                touched.add(n)
                return touched
            """,
        )
        assert fs.returns_unordered
        # returning the set itself is not a finding — order is unexposed
        assert fs.taint_findings == []

    def test_id_in_comparison_key(self, tmp_path):
        _, fs = self._fs(
            tmp_path,
            """
            def f(xs):
                return sorted(xs, key=lambda v: id(v))
            """,
        )
        assert any(t.rule == "REP-DT002" for t in fs.taint_findings)


class TestCaptureCapability:
    FILES = {
        "mod.py": """
            class Ladder:
                def __init__(self):
                    self.rungs = []

            class Wrapper(Ladder):
                pass

            class Plain:
                def __init__(self):
                    self.stuff = []
            """,
    }

    def test_fingerprint_attr_is_capable(self, tmp_path):
        project = build_project(tmp_path, self.FILES)
        assert project.capture_capable("mod", "Ladder") is True

    def test_capability_inherits(self, tmp_path):
        project = build_project(tmp_path, self.FILES)
        assert project.capture_capable("mod", "Wrapper") is True

    def test_no_fingerprint_is_incapable(self, tmp_path):
        project = build_project(tmp_path, self.FILES)
        assert project.capture_capable("mod", "Plain") is False

    def test_unknown_class_is_unresolvable(self, tmp_path):
        project = build_project(tmp_path, self.FILES)
        assert project.capture_capable("mod", "Elsewhere") is not True


class TestRecoveryGuardedRegion:
    """REP-X001/X002 see the recovery manager's guarded attempt.

    The collector recognises only a literal ``with guarded(x):``; were
    the multi-structure attempt rewritten through, say,
    ``ExitStack.enter_context(guarded(...))``, the region would drop out
    of the exception-safety rules while reprolint still reported clean.
    A target the checker cannot resolve (``guarded(xs[0])``) is skipped
    too, so the region must guard a plain name.
    """

    def test_recovery_module_yields_a_guarded_region(self):
        path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "src" / "repro" / "resilience" / "recovery.py"
        )
        project = ProjectContext([summarize_module(str(path), path.read_text())])
        regions = [
            region
            for _summary, fs in project.all_functions()
            for region in fs.guarded_regions
        ]
        assert any(region.target_kind == "name" for region in regions)
