"""Command-line interface for reprolint.

Invoked as ``python -m repro.analysis [paths...]`` or via the ``repro
lint`` subcommand.  Exits non-zero when findings survive suppression and
the committed baseline, so a bare invocation is a CI gate; exit 2 means
the invocation itself was bad (unknown rule, missing path).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .autofix import apply_fixes
from .baseline import DEFAULT_BASELINE, Baseline
from .cache import SummaryCache
from .engine import all_rules, lint_paths, rule_matches

#: default on-disk cache for whole-program summaries + per-file findings.
DEFAULT_CACHE_DIR = ".reprolint-cache"


def build_parser() -> argparse.ArgumentParser:
    """The reprolint argument parser."""
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "AST-based invariant linter for cost accounting, determinism, "
            "simulated-PRAM race safety, API hygiene, and whole-program "
            "charge/exception/taint analysis (see "
            "docs/STATIC_ANALYSIS.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text; sarif is SARIF 2.1.0)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help=(
            "comma-separated rule ids or family prefixes to report "
            "(e.g. REP-C selects every cost rule; default: all)"
        ),
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="print per-rule finding counts instead of individual findings",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help=(
            "apply mechanical autofixes (wrap flagged unordered iterables "
            "in sorted(...)), then re-lint; idempotent"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help=(
            "baseline file of accepted findings (default: "
            f"{DEFAULT_BASELINE} next to the current directory, if present)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite the baseline from the current findings (preserving "
            "justifications of surviving entries) and exit 0"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=DEFAULT_CACHE_DIR,
        help=f"summary cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental summary cache",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id with its description and exit",
    )
    return parser


def _validate_paths(paths: Sequence[str]) -> Optional[str]:
    """An error message when any path argument can't be linted, else None."""
    for path in paths:
        if not os.path.exists(path):
            return f"path does not exist: {path}"
        if os.path.isfile(path) and not path.endswith(".py"):
            return f"not a Python file or directory: {path}"
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Lint the given paths; exit 0 iff no findings survive suppression."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule, description in all_rules().items():
            print(f"{rule}  {description}")
        return 0
    error = _validate_paths(args.paths)
    if error is not None:
        print(f"reprolint: {error}", file=sys.stderr)
        return 2
    select = (
        [r.strip() for r in args.select.split(",") if r.strip()]
        if args.select
        else None
    )
    if select:
        known = set(all_rules()) | {"REP-E999"}
        unknown = sorted(
            s for s in select if not any(rule_matches(k, [s]) for k in known)
        )
        if unknown:
            print(
                f"reprolint: unknown rule id(s) or prefix(es): "
                f"{', '.join(unknown)} (see --list-rules)",
                file=sys.stderr,
            )
            return 2

    baseline: Optional[Baseline] = None
    baseline_path = args.baseline or DEFAULT_BASELINE
    if not args.no_baseline and (args.baseline or os.path.exists(baseline_path)):
        try:
            baseline = Baseline.load(baseline_path)
        except ValueError as exc:
            print(f"reprolint: {exc}", file=sys.stderr)
            return 2

    cache = None if args.no_cache else SummaryCache(args.cache_dir)

    def run():
        return lint_paths(
            args.paths,
            select=select,
            baseline=None if args.update_baseline else baseline,
            cache=cache,
        )

    report = run()
    if args.update_baseline:
        target = Baseline(path=baseline_path) if baseline is None else baseline
        count = target.write(baseline_path, report.findings)
        print(f"reprolint: wrote {count} entr(y/ies) to {baseline_path}")
        return 0
    if args.fix:
        edited = apply_fixes(report.findings)
        for path, edits in sorted(edited.items()):
            print(f"reprolint: fixed {edits} site(s) in {path}")
        if edited:
            report = run()  # re-lint the post-fix tree
    if cache is not None:
        cache.prune()
    if args.format == "sarif":
        from .sarif import render_sarif

        print(render_sarif(report, all_rules()))
    elif args.format == "json":
        print(report.render_json())
    elif args.statistics:
        print(report.render_statistics())
    else:
        print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = ["build_parser", "main"]
