"""The text report over one analysis run: one line per finding, then a
summary line with the verdict."""

from __future__ import annotations

from dataclasses import dataclass

from .context import Finding

__all__ = ["AnalysisReport", "render_text"]


@dataclass
class AnalysisReport:
    """Everything one ``analyze`` run produced."""

    files: list[str]
    findings: list[Finding]

    @property
    def exit_code(self) -> int:
        """0 when no rule fired; 1 otherwise."""
        return 1 if self.findings else 0


def render_text(report: AnalysisReport) -> str:
    """The human-readable report."""
    lines = [
        f"{finding.location()}: {finding.code} {finding.message} "
        f"[{finding.symbol}]"
        for finding in sorted(
            report.findings, key=lambda f: (f.path, f.line, f.col, f.code)
        )
    ]
    verdict = "FAIL" if report.exit_code else "ok"
    lines.append(
        f"nomadlint: {len(report.files)} file(s), "
        f"{len(report.findings)} finding(s) — {verdict}"
    )
    return "\n".join(lines) + "\n"
