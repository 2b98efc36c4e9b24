"""The rule registry: every diagnostic the analyzers can emit.

Rule ids are stable (tests and suppressions key on them); default
severities live here so the analyzers and the documentation table cannot
drift apart. ``SP*`` rules come from the SPARQL linter, ``DM*`` from the
D2R mapping linter, ``SH*`` from the graph shape checker and ``CC*``
from the concurrency analyzer (:mod:`repro.analysis.concurrency`).
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
    component: str  # "sparql" | "d2r" | "shape" | "concurrency"


_RULES = [
    # --- SPARQL linter -----------------------------------------------------
    Rule("SP000", "artifact could not be parsed / loaded",
         Severity.ERROR, "sparql"),
    Rule("SP001", "projected variable never bound in the pattern",
         Severity.ERROR, "sparql"),
    Rule("SP002", "variable used in FILTER/ORDER BY/BIND but never bound",
         Severity.ERROR, "sparql"),
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
    Rule("DM001", "URI pattern placeholder is not a column of the table",
         Severity.ERROR, "d2r"),
    Rule("DM002", "mapped column does not exist in the table",
         Severity.ERROR, "d2r"),
    Rule("DM003", "link targets a table with no table map",
         Severity.ERROR, "d2r"),
    Rule("DM004", "link target cannot be resolved (missing table or no "
         "primary key)", Severity.ERROR, "d2r"),
    Rule("DM005", "duplicate URI pattern across table maps",
         Severity.WARNING, "d2r"),
    Rule("DM006", "declared datatype is incompatible with the column type",
         Severity.ERROR, "d2r"),
    Rule("DM007", "table map refers to a table missing from the schema",
         Severity.ERROR, "d2r"),
    Rule("DM008", "keyword split over a non-text column",
         Severity.WARNING, "d2r"),
    Rule("DM009", "URI pattern has no placeholders (constant subject)",
         Severity.WARNING, "d2r"),
    Rule("DM010", "property declares both a language tag and a datatype",
         Severity.WARNING, "d2r"),
    # --- Graph shape checker -----------------------------------------------
    Rule("SH001", "subject type violates the predicate's rdfs:domain",
         Severity.WARNING, "shape"),
    Rule("SH002", "object violates the predicate's rdfs:range",
         Severity.WARNING, "shape"),
    Rule("SH003", "cardinality bound exceeded",
         Severity.WARNING, "shape"),
    Rule("SH004", "subject of a domain-constrained predicate has no type",
         Severity.INFO, "shape"),
    # --- Concurrency analyzer ----------------------------------------------
    Rule("CC001", "attribute guarded by a lock elsewhere is accessed "
         "unguarded", Severity.ERROR, "concurrency"),
    Rule("CC002", "inconsistent nested lock acquisition order "
         "(potential deadlock cycle)", Severity.ERROR, "concurrency"),
    Rule("CC003", "blocking call or injected callback invoked while "
         "holding a lock", Severity.ERROR, "concurrency"),
    Rule("CC004", "mutable state captured by an executor-submitted "
         "closure without a guard", Severity.WARNING, "concurrency"),
    Rule("CC005", "lock created per-call instead of per-instance",
         Severity.ERROR, "concurrency"),
    Rule("CC006", "lock acquired manually without a try/finally release",
         Severity.WARNING, "concurrency"),
    Rule("CC007", "nested acquisition of a non-reentrant lock "
         "(self-deadlock)", Severity.ERROR, "concurrency"),
    Rule("CC008", "class-level mutable attribute mutated through "
         "instances (shared across all instances)",
         Severity.WARNING, "concurrency"),
    Rule("CC009", "condition wait() outside a predicate re-check loop",
         Severity.WARNING, "concurrency"),
    Rule("CC010", "module-level mutable state mutated without a guard "
         "in a threaded module", Severity.WARNING, "concurrency"),
]

#: Version of the rule catalog, embedded in ``repro lint --json``
#: envelopes so CI artifact diffs can tell rule-set drift from real
#: regressions. Bump whenever a rule is added, removed or re-tiered.
CATALOG_VERSION = "2026.13"

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
