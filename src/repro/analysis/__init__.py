"""Static analysis: lint declarative artifacts before anything executes.

The retrieval surface of the system is declarative — SPARQL queries,
D2R table maps, RDF vocabulary — and a typo in any of them fails
*silently* (the forgiving prefix fallback resolves undeclared prefixes,
an unknown predicate just matches zero triples, a bad mapping column
emits nothing). This package is the correctness gate in front of that.
Every rule of the catalog (:data:`RULES`) has a live violation that it
alone catches; what a test or the runtime already catches has no rule.

* :class:`SparqlLinter` — SP002–SP009 over the parsed AST;
* :class:`MappingLinter` — DM002 and DM006: D2R table maps vs. the
  relational schema;
* :func:`self_check` — both over the paper's own artifacts
  (``repro lint --self-check``);
* :class:`QueryPlanner` — FILTER pushdown and cardinality-driven scan
  order behind ``Evaluator(optimize=True)`` and ``repro explain``;
* :class:`ConcurrencyAnalyzer` — CC-rule lock-discipline analysis over
  the repo's own Python source (``repro lint --concurrency``), with
  :class:`LockSanitizer` as its runtime complement (``repro sanitize``).

The names below are imported from their submodules on first use
(PEP 562): the executor's first :class:`GraphStatistics` lookup imports
:mod:`.stats` alone, and planning a query adds :mod:`.plan` — no linter
and not the concurrency analyzer (the planner and the SPARQL linter
share the expression walks of :mod:`repro.sparql.ast`).
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Dict, List

if TYPE_CHECKING:
    from .concurrency import ConcurrencyAnalyzer, analyze_paths
    from .d2r_lint import MappingLinter
    from .diagnostics import (
        Diagnostic,
        DiagnosticReport,
        Severity,
        Span,
    )
    from .plan import (
        Explanation,
        PlannedQuery,
        QueryPlanner,
        explain,
    )
    from .rules import CATALOG_VERSION, RULES, Rule, rule
    from .sanitizer import LockSanitizer, SanitizerReport
    from .self_check import (
        builtin_queries,
        extract_sparql_strings,
        lint_path,
        self_check,
    )
    from .sparql_lint import SparqlLinter
    from .stats import GraphStatistics
    from .vocabulary import (
        SUGGESTION_THRESHOLD,
        VocabularyIndex,
        default_vocabulary,
    )

#: Public name -> the submodule defining it (the package's ``__all__``).
_EXPORTS: Dict[str, str] = {
    "ConcurrencyAnalyzer": "concurrency",
    "analyze_paths": "concurrency",
    "MappingLinter": "d2r_lint",
    "Diagnostic": "diagnostics",
    "DiagnosticReport": "diagnostics",
    "Severity": "diagnostics",
    "Span": "diagnostics",
    "Explanation": "plan",
    "PlannedQuery": "plan",
    "QueryPlanner": "plan",
    "explain": "plan",
    "CATALOG_VERSION": "rules",
    "RULES": "rules",
    "Rule": "rules",
    "rule": "rules",
    "LockSanitizer": "sanitizer",
    "SanitizerReport": "sanitizer",
    "builtin_queries": "self_check",
    "extract_sparql_strings": "self_check",
    "lint_path": "self_check",
    "self_check": "self_check",
    "SparqlLinter": "sparql_lint",
    "GraphStatistics": "stats",
    "SUGGESTION_THRESHOLD": "vocabulary",
    "VocabularyIndex": "vocabulary",
    "default_vocabulary": "vocabulary",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    """Import a public name's submodule on first use and keep the name.

    Importing a submodule binds it on the package under its own name;
    :func:`self_check` shares its module's name, so the function is put
    back over the module (import the function from the package, not
    from ``repro.analysis.self_check``, to be sure of it)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    if module in _EXPORTS:
        globals()[module] = getattr(loaded, module)
    value = globals()[name] = getattr(loaded, name)
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *__all__})
