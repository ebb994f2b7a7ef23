"""Diagnostic findings shared by structural validation, the model checks, and the CLI."""

from typing import NamedTuple

SEVERITIES = ("error", "warning", "info")
_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


class SourcePos(NamedTuple):
    """1-based line/column location inside a model file."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"line {self.line}, col {self.column}"


class Finding(NamedTuple):
    """One diagnostic: a severity, a stable code, the offending element, and detail text."""

    severity: str
    code: str
    subject: str
    detail: str
    position: SourcePos | None = None

    def format(self) -> str:
        where = f" ({self.position})" if self.position is not None else ""
        return f"[{self.severity}] {self.code} {self.subject}: {self.detail}{where}"

    def to_record(self) -> dict:
        pos = self.position._asdict() if self.position is not None else None
        return self._asdict() | {"position": pos}


def sort_findings(findings) -> list[Finding]:
    """Deterministic ordering: by position, then severity, code, subject."""

    def key(f: Finding):
        pos = f.position or (1 << 30, 0)
        return (pos, _SEVERITY_RANK.get(f.severity, 99), f.code, f.subject, f.detail)

    return sorted(findings, key=key)


class CheckReport(NamedTuple):
    """Outcome of one model check: named, with findings; passes iff no error finding."""

    name: str
    findings: tuple[Finding, ...] = ()

    @property
    def passed(self) -> bool:
        return all(f.severity != "error" for f in self.findings)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def format(self, min_severity: str = "warning", place=None) -> str:
        """The status line, then one line per finding at `min_severity` or
        above. `place`, when given, maps each finding to the one to show (the
        CLI fills in its source position); it sees only the findings shown."""
        rank = _SEVERITY_RANK[min_severity]
        lines = [f"{self.name}: {self.status}"]
        for f in self.findings:
            if _SEVERITY_RANK.get(f.severity, 99) <= rank:
                lines.append(f"  {(place(f) if place else f).format()}")
        return "\n".join(lines)

    def to_record(self, place=None) -> dict:
        """The report as plain data; `place` maps each finding as in `format`."""
        return {
            "name": self.name,
            "status": self.status,
            "findings": [(place(f) if place else f).to_record() for f in self.findings],
        }


class ModelValidationError(Exception):
    """Raised when construction hits one or more error-severity findings."""

    def __init__(self, findings):
        self.findings: tuple[Finding, ...] = tuple(findings)
        errors = [f for f in self.findings if f.severity == "error"]
        head = errors[0] if errors else self.findings[0]
        super().__init__(f"{len(errors)} validation error(s); first: {head.format()}")
