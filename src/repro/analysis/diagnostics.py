"""Structured diagnostics for grammar static analysis.

Every lint finding is a :class:`Diagnostic` with a stable ``GRM00x``
code, a severity, and rule provenance (rule number plus the 1-based
line/column recorded by the grammar parser), so tools and CI can match
on codes while humans read ``grammar:line:col: CODE severity: message``
lines, compiler style.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "DIAGNOSTIC_CODES",
    "Diagnostic",
    "DiagnosticReport",
    "ERROR",
    "INFO",
    "WARNING",
]

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: Stable code registry: code → (default severity, short title).
DIAGNOSTIC_CODES: dict[str, tuple[str, str]] = {
    "GRM001": (ERROR, "unproductive nonterminal"),
    "GRM002": (WARNING, "unreachable nonterminal"),
    "GRM003": (ERROR, "missing or underivable start nonterminal"),
    "GRM004": (WARNING, "duplicate rule"),
    "GRM005": (WARNING, "cost-shadowed rule"),
    "GRM006": (WARNING, "zero-cost chain-rule cycle"),
    "GRM007": (ERROR, "self-referential chain rule"),
    "GRM008": (WARNING, "dynamic chain rule disables eager table construction"),
    "GRM009": (INFO, "dialect operators not covered by any rule"),
    "GRM010": (ERROR, "pattern/operator conflict"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding, with provenance back to the grammar source."""

    code: str
    severity: str
    message: str
    grammar: str = ""
    #: Number of the offending rule, or ``None`` for grammar-level findings.
    rule_number: int | None = None
    #: ``describe()`` rendering of the offending rule ("" when grammar-level).
    rule: str = ""
    #: 1-based position in the grammar text (0 when unknown / programmatic).
    line: int = 0
    column: int = 0

    def format(self) -> str:
        """``grammar:line:col: CODE severity: message`` (compiler style)."""
        origin = self.grammar or "<grammar>"
        if self.line > 0:
            origin = f"{origin}:{self.line}:{self.column}"
        return f"{origin}: {self.code} {self.severity}: {self.message}"


@dataclass
class DiagnosticReport:
    """All diagnostics produced by one lint run over one grammar."""

    grammar: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def has_errors(self) -> bool:
        return any(d.severity == ERROR for d in self.diagnostics)

    def codes(self) -> set[str]:
        """The distinct diagnostic codes present in this report."""
        return {d.code for d in self.diagnostics}

    def format(self) -> str:
        if not self.diagnostics:
            return f"{self.grammar}: clean (no diagnostics)"
        return "\n".join(d.format() for d in self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)
