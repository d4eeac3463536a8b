"""reprolint engine: discovery, per-file + whole-program phases, caching.

The engine runs in two phases.  The **per-file phase** walks the given
paths for ``.py`` files (skipping caches and build metadata), builds one
:class:`~repro.analysis.walker.ModuleContext` per file, runs every
registered per-file checker over it, and filters findings through the
inline ``# reprolint: disable=`` map.  It also produces one picklable
:class:`~repro.analysis.project.ModuleSummary` per file — cached
content-hash-keyed alongside the per-file findings, so warm runs skip
both parsing and checking for unchanged files.

The **whole-program phase** folds all summaries into a
:class:`~repro.analysis.project.ProjectContext` (symbol table, call
graph, ``may_charge``/``may_mutate`` fixpoints) and runs the
interprocedural checkers (REP-CF / REP-X / REP-DT).  It is
cheap — pure traversal of summaries — so it re-runs in full every lint.

Cost-accounting rules (REP-C*, REP-CF*) only apply inside the structure
layer — paths under ``core/`` or ``hashtable/`` — where
DESIGN.md §6 requires every mutation to charge the :class:`CostModel`.
Everything else (apps, graphs, tooling) is exempt from those but still
checked for determinism, races, and hygiene.

``select`` entries and suppression ids match by *prefix*: ``REP-D``
selects every determinism rule, ``REP-DT001`` exactly one.  A committed
:class:`~repro.analysis.baseline.Baseline` absorbs known findings so
new rules land without a big-bang fixup.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Sequence, Type

from .baseline import Baseline
from .checkers import ALL_CHECKERS, ALL_PROJECT_CHECKERS
from .findings import Finding, LintReport
from .project import ModuleSummary, ProjectContext, summarize_module
from .walker import Checker, ModuleContext

#: directory names never descended into.
_SKIP_DIRS = frozenset(
    {
        "__pycache__",
        ".git",
        ".pytest_cache",
        "build",
        "dist",
        ".ruff_cache",
        ".reprolint-cache",
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


def rule_matches(rule: str, patterns: Sequence[str]) -> bool:
    """Prefix semantics shared by --select and inline suppressions."""
    return any(rule == p or rule.startswith(p) for p in patterns)


def _project_findings(
    summaries: Sequence[ModuleSummary],
    project_checkers: Optional[Sequence[type]] = None,
) -> list[Finding]:
    """Run the whole-program checkers; suppression-filtered, deduplicated."""
    project = ProjectContext(summaries)
    seen: set[Finding] = set()
    out: list[Finding] = []
    checkers = (
        project_checkers if project_checkers is not None else ALL_PROJECT_CHECKERS
    )
    for checker_cls in checkers:
        for summary, finding in checker_cls(project).run():
            if finding in seen:
                continue
            seen.add(finding)
            if project.is_suppressed(summary, finding.line, finding.rule):
                continue
            out.append(finding)
    return out


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    cost_scope: bool = True,
    checkers: Optional[Sequence[Type[Checker]]] = None,
    select: Optional[Sequence[str]] = None,
    project: bool = True,
) -> list[Finding]:
    """Lint one source string; the unit-test entry point.

    Runs the per-file checkers plus (by default) the whole-program
    checkers over a single-module project, so interprocedural fixtures
    are testable without touching the filesystem.  Returns the
    deduplicated, suppression-filtered findings sorted by (file, line,
    rule).
    """
    ctx = ModuleContext(path, source)
    ctx.in_cost_scope = cost_scope
    seen: set[Finding] = set()
    out: list[Finding] = []
    for checker_cls in checkers if checkers is not None else ALL_CHECKERS:
        for finding in checker_cls(ctx).run():
            if finding in seen:
                continue
            seen.add(finding)
            if ctx.is_suppressed(finding):
                continue
            out.append(finding)
    if project and checkers is None:
        summary = summarize_module(
            path if path != "<string>" else "fixture.py",
            source,
            tree=ctx.tree,
            display_path=path,
            in_cost_scope=cost_scope,
        )
        for finding in _project_findings([summary]):
            if finding not in seen:
                seen.add(finding)
                out.append(finding)
    if select:
        out = [f for f in out if rule_matches(f.rule, select)]
    return sorted(out)


def _lint_one_file(
    filepath: str,
    source: str,
    checkers: Optional[Sequence[Type[Checker]]],
) -> tuple[list[Finding], Optional[ModuleSummary]]:
    """Per-file findings + whole-program summary for one module.

    Raises SyntaxError for unparseable sources (caller reports REP-E999).
    """
    cost = in_cost_scope(filepath)
    ctx = ModuleContext(filepath, source)
    ctx.in_cost_scope = cost
    seen: set[Finding] = set()
    findings: list[Finding] = []
    for checker_cls in checkers if checkers is not None else ALL_CHECKERS:
        for finding in checker_cls(ctx).run():
            if finding in seen or ctx.is_suppressed(finding):
                continue
            seen.add(finding)
            findings.append(finding)
    summary = summarize_module(
        filepath, source, tree=ctx.tree, in_cost_scope=cost
    )
    return findings, summary


def lint_paths(
    paths: Sequence[str],
    *,
    checkers: Optional[Sequence[Type[Checker]]] = None,
    select: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
    cache=None,
    project: bool = True,
) -> LintReport:
    """Lint every Python file under ``paths`` into one report.

    Files with syntax errors are reported as a single ``REP-E999``
    finding rather than aborting the run.  ``cache`` is an optional
    :class:`~repro.analysis.cache.SummaryCache`; ``baseline`` absorbs
    known findings (the absorbed count lands in ``report.baselined``).
    """
    report = LintReport(subject="reprolint " + " ".join(paths))
    for path in paths:
        if not os.path.exists(path):
            # a typo'd path must not silently pass the CI gate
            report.add(Finding(path, 1, "REP-E999", "path does not exist"))
    summaries: list[ModuleSummary] = []
    all_findings: list[Finding] = []
    default_suite = checkers is None
    for filepath in iter_python_files(paths):
        report.files_checked += 1
        try:
            with open(filepath, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            report.add(Finding(filepath, 1, "REP-E999", f"cannot read file: {exc}"))
            continue
        record = None
        if cache is not None and default_suite:
            record = cache.get(_cache_salt(filepath) + source)
        if record is not None:
            findings, summary = record
        else:
            try:
                findings, summary = _lint_one_file(filepath, source, checkers)
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
            if cache is not None and default_suite:
                cache.put(_cache_salt(filepath) + source, (findings, summary))
        all_findings.extend(findings)
        if summary is not None:
            summaries.append(summary)
    if project and default_suite and summaries:
        all_findings.extend(_project_findings(summaries))
    if select:
        all_findings = [
            f for f in all_findings if rule_matches(f.rule, select)
        ]
    if baseline is not None:
        all_findings, absorbed = baseline.filter(all_findings)
        report.baselined = absorbed
    report.extend(all_findings)
    report.findings.sort()
    return report


def _cache_salt(filepath: str) -> str:
    """Path-derived facts baked into cached findings (file field, scope)."""
    return f"{filepath}\0{int(in_cost_scope(filepath))}\0"


def all_rules(
    checkers: Optional[Sequence[Type[Checker]]] = None,
) -> dict[str, str]:
    """Rule id -> description across both checker suites."""
    rules: dict[str, str] = {}
    for checker_cls in checkers if checkers is not None else ALL_CHECKERS:
        rules.update(checker_cls.rules)
    if checkers is None:
        for checker_cls in ALL_PROJECT_CHECKERS:
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
