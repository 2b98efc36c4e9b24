"""The uniform diagnostic model shared by every analyzer.

Each analyzer (SPARQL linter, D2R mapping linter, concurrency analyzer)
reports problems as :class:`Diagnostic` values — a rule id from the
registry in :mod:`repro.analysis.rules`, a severity, an optional source
span, a human-readable message and an optional "did you mean"
suggestion.
:class:`DiagnosticReport` aggregates diagnostics across analyzers and
renders them the way compilers do (``source:offset: severity RULE …``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so ``max()`` picks the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, name: str) -> "Severity":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {name!r}") from None


@dataclass(frozen=True)
class Span:
    """A half-open character range ``[start, end)`` in the source text."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span [{self.start}, {self.end})")

    def slice(self, source: str) -> str:
        return source[self.start:self.end]


@dataclass(frozen=True)
class Diagnostic:
    """One finding: rule id, severity, message, optional span/suggestion."""

    rule: str
    severity: Severity
    message: str
    span: Optional[Span] = None
    suggestion: Optional[str] = None
    source: Optional[str] = None  # artifact name: "Q1", a file path, ...
    line: Optional[int] = None  # 1-based source line, when known

    def render(self) -> str:
        where = self.source or "<input>"
        if self.line is not None:
            where += f":{self.line}"
        elif self.span is not None:
            where += f":{self.span.start}"
        text = f"{where}: {self.severity} {self.rule} {self.message}"
        if self.suggestion:
            text += f" (did you mean {self.suggestion!r}?)"
        return text


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics with aggregate helpers."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def at_least(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.at_least(Severity.ERROR)

    def render(self, min_severity: Severity = Severity.INFO) -> str:
        lines = [
            d.render() for d in self.diagnostics if d.severity >= min_severity
        ]
        return "\n".join(lines)
