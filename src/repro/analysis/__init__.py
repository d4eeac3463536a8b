"""reprolint: AST-based invariant linter for this repository.

Statically enforces the disciplines the reproduction depends on — cost
model accounting in the structure layer (DESIGN.md §6), seed-driven
determinism, simulated-PRAM race safety in ``parallel()`` regions, and
the span taxonomy and Tracer clock (docs/OBSERVABILITY.md).  On top of
the per-file rules, a whole-program phase (symbol table, call graph,
per-function CFGs) checks the interprocedural families: all-paths charge
reachability (REP-CF), ``guarded()`` exception safety (REP-X), and
determinism taint (REP-DT).  See docs/STATIC_ANALYSIS.md for the rule
catalogue and the inline suppression syntax.
"""

from __future__ import annotations

from .checkers import ALL_CHECKERS, ALL_PROJECT_CHECKERS
from .engine import all_rules, lint_paths, lint_source
from .findings import Finding, LintReport
from .project import ProjectChecker, ProjectContext, summarize_module
from .walker import Checker, ModuleContext

__all__ = [
    "ALL_CHECKERS",
    "ALL_PROJECT_CHECKERS",
    "Checker",
    "Finding",
    "LintReport",
    "ModuleContext",
    "ProjectChecker",
    "ProjectContext",
    "all_rules",
    "lint_paths",
    "lint_source",
    "summarize_module",
]
