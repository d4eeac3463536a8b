"""Finding and report types for reprolint.

Mirrors the :class:`repro.verify.AuditReport` idiom: checkers never
raise on a violation — they accumulate :class:`Finding` records into a
:class:`LintReport` whose ``ok`` property drives the CLI exit code, so CI
logs every problem in one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a source line."""

    file: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.rule} {self.message}"


@dataclass
class LintReport:
    """All findings of one lint run."""

    subject: str
    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0

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

    def render(self) -> str:
        lines = [f.render() for f in sorted(self.findings)]
        status = "OK" if self.ok else f"{len(self.findings)} finding(s)"
        summary = f"[{status}] {self.subject} ({self.files_checked} file(s))"
        if not self.ok:
            breakdown = ", ".join(
                f"{rule}: {count}" for rule, count in sorted(self.by_rule().items())
            )
            summary += f" — {breakdown}"
        lines.append(summary)
        return "\n".join(lines)
