"""Command-line interface for reprolint.

Invoked as ``python -m repro.analysis [paths...] [--select RULES]
[--list-rules]``.  Exits 1 when findings survive inline suppression, so
a bare invocation is a CI gate; exit 2 means the invocation itself was
bad (unknown rule, missing path).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .engine import all_rules, lint_paths, rule_matches


def build_parser() -> argparse.ArgumentParser:
    """The reprolint argument parser."""
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "AST-based invariant linter for cost accounting, determinism, "
            "simulated-PRAM race safety, the span taxonomy, and "
            "whole-program charge/exception/taint analysis (see "
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
        "--select",
        metavar="RULES",
        help=(
            "comma-separated rule ids or family prefixes to report "
            "(e.g. REP-C selects every cost rule; default: all)"
        ),
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
    report = lint_paths(args.paths, select=select)
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = ["build_parser", "main"]
