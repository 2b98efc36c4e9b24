"""Self-check: lint everything the system itself ships.

``repro lint --self-check`` runs the SPARQL and D2R mapping linters
over the paper's own artifacts — the virtual-album queries Q1/Q2/Q3, the
4-branch mashup M1 and the platform's D2R mapping against the real
gallery schema. This is the correctness gate CI runs; it must stay free of
diagnostics.

The module also knows how to lint files: ``.rq``/``.sparql`` files as
whole queries and ``.py`` files by extracting every string literal that
parses as a SPARQL query.
"""

from __future__ import annotations

import ast as python_ast
from pathlib import Path
from typing import List, Optional, Tuple

from .diagnostics import Diagnostic, DiagnosticReport
from .sparql_lint import SparqlLinter

_QUERY_SUFFIXES = (".rq", ".sparql")


def builtin_queries() -> List[Tuple[str, str]]:
    """The paper's named queries: ``[(name, sparql), ...]``."""
    from ..core.albums import geo_album, rated_album, social_album
    from ..core.mashup import mashup_query

    return [
        ("Q1", geo_album().query),
        ("Q2", social_album().query),
        ("Q3", rated_album().query),
        ("M1", mashup_query(pid=1)),
    ]


def self_check(linter: Optional[SparqlLinter] = None) -> DiagnosticReport:
    """Run the full self-check; returns the aggregated report."""
    from ..platform import Platform
    from .d2r_lint import MappingLinter

    if linter is None:
        linter = SparqlLinter.default()
    report = DiagnosticReport()
    for name, query in builtin_queries():
        report.extend(linter.lint(query, name=name))

    platform = Platform()
    report.extend(
        MappingLinter().lint(platform.mapping, platform.db,
                             name="platform-mapping")
    )
    return report


# ---------------------------------------------------------------------------
# File linting (CLI)
# ---------------------------------------------------------------------------


def lint_path(
    path: Path, linter: Optional[SparqlLinter] = None
) -> List[Diagnostic]:
    """Lint one file or directory (recursing over lintable suffixes).

    A file that cannot be read or parsed raises (``OSError``,
    :class:`~repro.sparql.errors.SparqlSyntaxError`, ...); a suffix
    with nothing to lint raises ``ValueError``."""
    if linter is None:
        linter = SparqlLinter.default()
    if path.is_dir():
        diags: List[Diagnostic] = []
        for child in sorted(path.rglob("*")):
            if child.suffix in _QUERY_SUFFIXES + (".py",):
                diags.extend(lint_path(child, linter))
        return diags
    if path.suffix in _QUERY_SUFFIXES:
        from ..sparql.errors import SparqlSyntaxError

        text = path.read_text(encoding="utf-8")
        try:
            return linter.lint(text, name=str(path))
        except SparqlSyntaxError as exc:
            raise SparqlSyntaxError(f"{path}: {exc}") from exc
    if path.suffix == ".py":
        return _lint_python_file(path, linter)
    raise ValueError(
        f"{path}: unsupported file type (expected .rq/.sparql/.py)"
    )


def _lint_python_file(path: Path,
                      linter: SparqlLinter) -> List[Diagnostic]:
    """Extract and lint every string literal that parses as SPARQL."""
    diags: List[Diagnostic] = []
    text = path.read_text(encoding="utf-8")
    for query, lineno in extract_sparql_strings(text):
        diags.extend(linter.lint(query, name=f"{path}:{lineno}"))
    return diags


def extract_sparql_strings(text: str) -> List[Tuple[str, int]]:
    """String constants in Python source that parse as SPARQL queries.

    F-strings and concatenations are skipped (their query text is not
    statically known); constants that merely *look* like queries but do
    not parse are skipped too — a fragment is not a lintable artifact.
    """
    from ..sparql.errors import SparqlSyntaxError
    from ..sparql.parser import parse_query

    try:
        tree = python_ast.parse(text)
    except SyntaxError:
        return []
    found: List[Tuple[str, int]] = []
    for node in python_ast.walk(tree):
        if not isinstance(node, python_ast.Constant):
            continue
        value = node.value
        if not isinstance(value, str):
            continue
        upper = value.upper()
        if "WHERE" not in upper and "ASK" not in upper:
            continue
        if not any(form in upper for form in
                   ("SELECT", "ASK", "CONSTRUCT", "DESCRIBE")):
            continue
        try:
            parse_query(value)
        except SparqlSyntaxError:
            continue
        found.append((value, node.lineno))
    return found
