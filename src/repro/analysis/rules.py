"""The rule registry: every diagnostic the analyzers can emit.

Rule ids are stable (tests and suppressions key on them); default
severities live here so the analyzers and the documentation table cannot
drift apart. ``SP*`` rules come from the SPARQL linter, ``DM*`` from the
D2R mapping linter and ``CC*`` from the concurrency analyzer
(:mod:`repro.analysis.concurrency`). Every rule has a live violation:
an edit of a file the repo ships that the rule reports and no
behavioural test notices (``tests/analysis/test_live_violations.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .diagnostics import Diagnostic, Severity, Span


@dataclass(frozen=True)
class Rule:
    """One registered rule: stable id, summary, default severity."""

    id: str
    title: str
    severity: Severity
    component: str  # "sparql" | "d2r" | "concurrency"


_RULES = [
    # --- SPARQL linter -----------------------------------------------------
    Rule("SP002", "variable projected or used in FILTER/ORDER BY/BIND "
         "but never bound", Severity.ERROR, "sparql"),
    Rule("SP003", "undeclared prefix resolved via the default prefix table",
         Severity.WARNING, "sparql"),
    Rule("SP004", "predicate not present in the known vocabulary",
         Severity.ERROR, "sparql"),
    Rule("SP005", "class not present in the known vocabulary",
         Severity.ERROR, "sparql"),
    Rule("SP006", "disconnected graph pattern (cartesian product)",
         Severity.WARNING, "sparql"),
    Rule("SP007", "filter condition is always false",
         Severity.ERROR, "sparql"),
    Rule("SP008", "misuse of a bif: extension function",
         Severity.ERROR, "sparql"),
    Rule("SP009", "variable occurs exactly once (possible typo)",
         Severity.INFO, "sparql"),
    # --- D2R mapping linter ------------------------------------------------
    Rule("DM002", "mapped column does not exist in the table",
         Severity.ERROR, "d2r"),
    Rule("DM006", "declared datatype is incompatible with the column type",
         Severity.ERROR, "d2r"),
    # --- Concurrency analyzer ----------------------------------------------
    Rule("CC001", "attribute guarded by a lock elsewhere is accessed "
         "unguarded", Severity.ERROR, "concurrency"),
    Rule("CC002", "inconsistent nested lock acquisition order "
         "(potential deadlock cycle)", Severity.ERROR, "concurrency"),
    Rule("CC003", "blocking call or injected callback invoked while "
         "holding a lock", Severity.ERROR, "concurrency"),
    Rule("CC005", "lock created per-call instead of per-instance",
         Severity.ERROR, "concurrency"),
    Rule("CC006", "lock acquired manually without a try/finally release",
         Severity.WARNING, "concurrency"),
    Rule("CC008", "class-level mutable attribute mutated through "
         "instances (shared across all instances)",
         Severity.WARNING, "concurrency"),
    Rule("CC009", "condition wait() outside a predicate re-check loop",
         Severity.WARNING, "concurrency"),
]

#: Version of the rule catalog, embedded in ``repro lint --json``
#: envelopes so CI artifact diffs can tell rule-set drift from real
#: regressions. Bump whenever a rule is added, removed or re-tiered.
CATALOG_VERSION = "2026.14"

RULES: Dict[str, Rule] = {rule.id: rule for rule in _RULES}


def rule(rule_id: str) -> Rule:
    if rule_id not in RULES:
        raise KeyError(f"unknown rule id {rule_id!r}")
    return RULES[rule_id]


def make(
    rule_id: str,
    message: str,
    span: Optional[Span] = None,
    suggestion: Optional[str] = None,
    source: Optional[str] = None,
    severity: Optional[Severity] = None,
    line: Optional[int] = None,
) -> Diagnostic:
    """Build a diagnostic for ``rule_id`` with its default severity."""
    registered = rule(rule_id)
    return Diagnostic(
        rule=registered.id,
        severity=registered.severity if severity is None else severity,
        message=message,
        span=span,
        suggestion=suggestion,
        source=source,
        line=line,
    )
