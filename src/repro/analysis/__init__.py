"""Static analysis: lint declarative artifacts before anything executes.

The retrieval surface of the system is declarative — SPARQL queries,
D2R table maps, RDF vocabulary — and a typo in any of them fails
*silently* (the forgiving prefix fallback resolves misspelled prefixes,
an unknown predicate just matches zero triples, a bad mapping column
emits nothing). This package is the correctness gate in front of that:

* :class:`SparqlLinter` — multi-rule lint over the parsed AST;
* :class:`MappingLinter` — D2R table maps vs. the relational schema;
* :class:`ShapeChecker` — domain/range/cardinality validation of graphs;
* :func:`self_check` — all of the above over the paper's own artifacts
  (``repro lint --self-check``);
* :class:`QueryPlanner` — FILTER pushdown and cardinality-driven scan
  order behind ``Evaluator(optimize=True)`` and ``repro explain``;
* :class:`ConcurrencyAnalyzer` — CC-rule lock-discipline analysis over
  the repo's own Python source (``repro lint --concurrency``), with
  :class:`LockSanitizer` as its runtime complement (``repro sanitize``).
"""

from .concurrency import ConcurrencyAnalyzer, analyze_paths
from .d2r_lint import MappingLinter
from .diagnostics import (
    AnalysisError,
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
from .shapes import DEFAULT_CARDINALITIES, ShapeChecker
from .sparql_lint import SparqlLinter
from .stats import GraphStatistics
from .vocabulary import (
    SUGGESTION_THRESHOLD,
    VocabularyIndex,
    default_vocabulary,
)

__all__ = [
    "AnalysisError",
    "CATALOG_VERSION",
    "ConcurrencyAnalyzer",
    "DEFAULT_CARDINALITIES",
    "Diagnostic",
    "DiagnosticReport",
    "Explanation",
    "GraphStatistics",
    "LockSanitizer",
    "MappingLinter",
    "PlannedQuery",
    "QueryPlanner",
    "RULES",
    "Rule",
    "SUGGESTION_THRESHOLD",
    "SanitizerReport",
    "Severity",
    "ShapeChecker",
    "Span",
    "SparqlLinter",
    "VocabularyIndex",
    "analyze_paths",
    "builtin_queries",
    "default_vocabulary",
    "explain",
    "extract_sparql_strings",
    "lint_path",
    "rule",
    "self_check",
]
