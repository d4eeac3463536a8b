"""Committed baseline: land new rules without a big-bang fixup.

A baseline file records findings that are *known and accepted* — either
legacy debt to be burned down, or intentional violations with a recorded
justification (e.g. batch-local per-edge grouping accepted under
REP-P002).  ``lint_paths`` subtracts baselined findings from the
report, so ``repro lint src`` exits 0 on a tree whose only findings are
baselined, while every *new* violation still fails CI.

Matching is on ``(file, rule, message)`` with paths normalized to
``/``-separated relpaths — deliberately **not** on line numbers, so
unrelated edits above a baselined site don't un-baseline it.  Each entry
may carry a ``justification`` string; ``--update-baseline`` rewrites the
file from the current findings while preserving justifications of
entries that survive.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Optional

from .findings import Finding

#: the default committed baseline, resolved relative to the CWD.
DEFAULT_BASELINE = ".reprolint-baseline.json"

_FORMAT_VERSION = 1


def _norm(path: str) -> str:
    """Stable, OS-independent relpath for baseline matching."""
    if os.path.isabs(path):
        try:
            path = os.path.relpath(path)
        except ValueError:
            pass  # different drive on Windows: keep absolute
    return os.path.normpath(path).replace(os.sep, "/")


class Baseline:
    """In-memory view of one baseline file."""

    def __init__(self, entries: Optional[list[dict]] = None, path: str = ""):
        self.path = path
        #: (file, rule, message) -> justification (may be "")
        self.entries: dict[tuple[str, str, str], str] = {}
        for entry in entries or []:
            key = (
                _norm(str(entry.get("file", ""))),
                str(entry.get("rule", "")),
                str(entry.get("message", "")),
            )
            self.entries[key] = str(entry.get("justification", ""))

    @classmethod
    def load(cls, path: str) -> "Baseline":
        """Load a baseline file; a missing file is an empty baseline."""
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return cls(path=path)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"unreadable baseline {path!r}: {exc}") from exc
        return cls(payload.get("entries", []), path=path)

    def _key(self, finding: Finding) -> tuple[str, str, str]:
        return (_norm(finding.file), finding.rule, finding.message)

    def matches(self, finding: Finding) -> bool:
        return self._key(finding) in self.entries

    def filter(self, findings: Iterable[Finding]) -> tuple[list[Finding], int]:
        """(surviving findings, how many the baseline absorbed)."""
        kept: list[Finding] = []
        absorbed = 0
        for finding in findings:
            if self.matches(finding):
                absorbed += 1
            else:
                kept.append(finding)
        return kept, absorbed

    def write(self, path: str, findings: Iterable[Finding]) -> int:
        """Rewrite the baseline from current findings.

        Justifications of entries that still occur are preserved; stale
        entries drop out.  Returns the number of entries written.
        """
        entries = []
        seen: set[tuple[str, str, str]] = set()
        for finding in sorted(findings):
            key = self._key(finding)
            if key in seen:
                continue
            seen.add(key)
            entry = {
                "file": key[0],
                "rule": key[1],
                "message": key[2],
                "justification": self.entries.get(key, ""),
            }
            entries.append(entry)
        payload = {
            "format": _FORMAT_VERSION,
            "comment": (
                "Accepted reprolint findings. Matching is on (file, rule, "
                "message), not line numbers. Regenerate with: repro lint "
                "src --update-baseline. Keep 'justification' non-empty for "
                "intentional, by-design sites."
            ),
            "entries": entries,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
        return len(entries)


__all__ = ["Baseline", "DEFAULT_BASELINE"]
