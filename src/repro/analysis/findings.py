"""Finding and report types for reprolint.

Mirrors the :class:`repro.verify.AuditReport` idiom: checkers never
raise on a violation — they accumulate :class:`Finding` records into a
:class:`LintReport` whose ``ok`` property drives the CLI exit code, so CI
logs every problem in one run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a source line.

    ``fix`` optionally carries a mechanical autofix as a source span
    ``(start_line, start_col, end_line, end_col)`` whose text should be
    wrapped in ``sorted(...)`` — applied by ``repro lint --fix``.  It is
    excluded from ordering/equality so identical findings dedupe whether
    or not a fix is attached.
    """

    file: str
    line: int
    rule: str
    message: str
    fix: Optional[tuple] = field(default=None, compare=False)

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass
class LintReport:
    """All findings of one lint run."""

    subject: str
    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: findings absorbed by the committed baseline (not in ``findings``).
    baselined: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings) -> None:
        self.findings.extend(findings)

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return counts

    def render_statistics(self) -> str:
        """Per-rule finding counts, widest count first — the triage view."""
        counts = self.by_rule()
        if not counts:
            return f"0 finding(s) across {self.files_checked} file(s)"
        lines = [
            f"{count:6d}  {rule}"
            for rule, count in sorted(
                counts.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        lines.append(
            f"{len(self.findings):6d}  total across {self.files_checked} file(s)"
        )
        return "\n".join(lines)

    def render(self) -> str:
        lines = [f.render() for f in sorted(self.findings)]
        status = "OK" if self.ok else f"{len(self.findings)} finding(s)"
        summary = f"[{status}] {self.subject} ({self.files_checked} file(s))"
        if self.baselined:
            summary += f" [{self.baselined} baselined]"
        if not self.ok:
            breakdown = ", ".join(
                f"{rule}: {count}" for rule, count in sorted(self.by_rule().items())
            )
            summary += f" — {breakdown}"
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(
            {
                "subject": self.subject,
                "ok": self.ok,
                "files_checked": self.files_checked,
                "findings": [f.to_dict() for f in sorted(self.findings)],
            },
            indent=2,
        )
