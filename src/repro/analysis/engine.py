"""reprolint engine: discovery, then the per-file and whole-program phases.

The engine runs in two phases.  The **per-file phase** walks the given
paths for ``.py`` files (skipping caches and build metadata), builds one
:class:`~repro.analysis.walker.ModuleContext` per file, runs every
registered per-file checker over it, and filters findings through the
inline ``# reprolint: disable=`` map.  It also produces one AST-free
:class:`~repro.analysis.project.ModuleSummary` per file.

The **whole-program phase** folds all summaries into a
:class:`~repro.analysis.project.ProjectContext` (symbol table, call
graph, ``may_charge``/``may_mutate`` fixpoints) and runs the
interprocedural checkers (REP-CF / REP-X / REP-DT).  Every run
re-analyses every file, so findings always reflect the current tree.

Cost-accounting rules (REP-C*, REP-CF*) only apply inside the structure
layer — paths under ``core/`` or ``hashtable/`` — where
DESIGN.md §6 requires every mutation to charge the :class:`CostModel`.
Everything else (apps, graphs, tooling) is exempt from those but still
checked for determinism, races, and the Tracer clock.

``select`` entries and suppression ids match by *prefix*: ``REP-D``
selects every determinism rule, ``REP-DT001`` exactly one.  The only
way to accept a finding is an inline ``# reprolint: disable=`` comment
at its site.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Sequence

from .checkers import ALL_CHECKERS, ALL_PROJECT_CHECKERS
from .findings import Finding, LintReport
from .project import ModuleSummary, ProjectContext, summarize_module
from .walker import ModuleContext, rule_matches

#: directory names never descended into.
_SKIP_DIRS = frozenset(
    {
        "__pycache__",
        ".git",
        ".pytest_cache",
        "build",
        "dist",
        ".ruff_cache",
    }
)

#: path components that put a file in cost-accounting scope.
_COST_SCOPE_DIRS = frozenset({"core", "hashtable"})


def iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    """Yield ``.py`` files under ``paths``, skipping caches and egg-info."""
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d
                for d in dirnames
                if d not in _SKIP_DIRS and not d.endswith(".egg-info")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def in_cost_scope(path: str) -> bool:
    """Is this file under a package whose mutations must charge a CostModel?"""
    parts = os.path.normpath(path).split(os.sep)
    return any(part in _COST_SCOPE_DIRS for part in parts)


def _project_findings(summaries: Sequence[ModuleSummary]) -> list[Finding]:
    """Run the whole-program checkers; suppression-filtered, deduplicated."""
    project = ProjectContext(summaries)
    seen: set[Finding] = set()
    out: list[Finding] = []
    for checker_cls in ALL_PROJECT_CHECKERS:
        for summary, finding in checker_cls(project).run():
            if finding in seen:
                continue
            seen.add(finding)
            if project.is_suppressed(summary, finding.line, finding.rule):
                continue
            out.append(finding)
    return out


def _lint_module(
    path: str, source: str, cost_scope: bool, summary_path: str
) -> tuple[list[Finding], ModuleSummary]:
    """Per-file findings + whole-program summary for one module.

    ``summary_path`` locates the module for its dotted name; findings
    are reported against ``path``.  Raises SyntaxError for unparseable
    sources (``lint_paths`` reports REP-E999).
    """
    ctx = ModuleContext(path, source, cost_scope)
    seen: set[Finding] = set()
    findings: list[Finding] = []
    for checker_cls in ALL_CHECKERS:
        for finding in checker_cls(ctx).run():
            if finding in seen or ctx.is_suppressed(finding):
                continue
            seen.add(finding)
            findings.append(finding)
    summary = summarize_module(
        summary_path,
        source,
        tree=ctx.tree,
        display_path=path,
        in_cost_scope=cost_scope,
    )
    return findings, summary


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    cost_scope: bool = True,
    select: Optional[Sequence[str]] = None,
) -> list[Finding]:
    """Lint one source string; the unit-test entry point.

    Runs the per-file checkers plus the whole-program checkers over a
    single-module project, so interprocedural fixtures are testable
    without touching the filesystem.  Returns the suppression-filtered
    findings sorted by (file, line, rule).
    """
    summary_path = path if path != "<string>" else "fixture.py"
    findings, summary = _lint_module(path, source, cost_scope, summary_path)
    findings += _project_findings([summary])
    if select:
        findings = [f for f in findings if rule_matches(f.rule, select)]
    return sorted(findings)


def lint_paths(
    paths: Sequence[str], *, select: Optional[Sequence[str]] = None
) -> LintReport:
    """Lint every Python file under ``paths`` into one report.

    Files with syntax errors are reported as a single ``REP-E999``
    finding rather than aborting the run.
    """
    report = LintReport(subject="reprolint " + " ".join(paths))
    for path in paths:
        if not os.path.exists(path):
            # a typo'd path must not silently pass the CI gate
            report.add(Finding(path, 1, "REP-E999", "path does not exist"))
    summaries: list[ModuleSummary] = []
    findings: list[Finding] = []
    for filepath in iter_python_files(paths):
        report.files_checked += 1
        try:
            with open(filepath, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            report.add(Finding(filepath, 1, "REP-E999", f"cannot read file: {exc}"))
            continue
        try:
            module_findings, summary = _lint_module(
                filepath, source, in_cost_scope(filepath), filepath
            )
        except SyntaxError as exc:
            report.add(
                Finding(
                    filepath,
                    exc.lineno or 1,
                    "REP-E999",
                    f"syntax error: {exc.msg}",
                )
            )
            continue
        findings.extend(module_findings)
        summaries.append(summary)
    if summaries:
        findings.extend(_project_findings(summaries))
    if select:
        findings = [f for f in findings if rule_matches(f.rule, select)]
    report.extend(findings)
    report.findings.sort()
    return report


def all_rules() -> dict[str, str]:
    """Rule id -> description across both checker suites."""
    rules: dict[str, str] = {}
    for checker_cls in [*ALL_CHECKERS, *ALL_PROJECT_CHECKERS]:
        rules.update(checker_cls.rules)
    return dict(sorted(rules.items()))


__all__ = [
    "all_rules",
    "in_cost_scope",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "rule_matches",
]
