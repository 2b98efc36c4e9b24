"""Self-check, file linting, the diagnostics model and the CLI."""

import re
from pathlib import Path

import pytest

from repro.analysis import (
    Diagnostic,
    DiagnosticReport,
    RULES,
    Severity,
    Span,
    builtin_queries,
    extract_sparql_strings,
    lint_path,
    self_check,
)
from repro.cli import main
from repro.sparql.errors import SparqlSyntaxError

from .test_live_violations import LIVE_VIOLATIONS

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


# ---------------------------------------------------------------------------
# Diagnostics model
# ---------------------------------------------------------------------------


def test_severity_ordering_and_parse():
    assert Severity.ERROR > Severity.WARNING > Severity.INFO
    assert Severity.parse("Error") is Severity.ERROR
    with pytest.raises(ValueError):
        Severity.parse("fatal")


def test_span_validation_and_slice():
    assert Span(2, 5).slice("abcdefg") == "cde"
    with pytest.raises(ValueError):
        Span(-1, 3)
    with pytest.raises(ValueError):
        Span(5, 2)


def test_diagnostic_render_format():
    diag = Diagnostic(
        rule="SP004", severity=Severity.ERROR, message="bad predicate",
        span=Span(10, 20), suggestion="foaf:name", source="Q9",
    )
    assert diag.render() == (
        "Q9:10: error SP004 bad predicate (did you mean 'foaf:name'?)"
    )


def test_report_aggregation():
    report = DiagnosticReport()
    report.add(Diagnostic("SP009", Severity.INFO, "info"))
    report.add(Diagnostic("SP003", Severity.WARNING, "warn"))
    report.add(Diagnostic("SP004", Severity.ERROR, "err"))
    assert len(report) == 3
    assert [d.rule for d in report.errors] == ["SP004"]
    assert [d.rule for d in report.at_least(Severity.WARNING)] == [
        "SP003", "SP004",
    ]
    assert report.render(Severity.WARNING).count("\n") == 1


def test_rule_registry_covers_all_components():
    components = {rule.component for rule in RULES.values()}
    assert components == {"sparql", "d2r", "concurrency"}
    # the README rule tables are the catalog: same ids, same severities
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    documented = re.findall(
        r"^\| ((?:SP|DM|SH|CC)\d+) +\| (\w+) +\|", readme, re.MULTILINE
    )
    assert sorted(documented) == sorted(
        (rule.id, rule.severity.name.lower()) for rule in RULES.values()
    )
    # every rule has a live violation, and only rules have one
    assert sorted(LIVE_VIOLATIONS) == sorted(RULES)


# ---------------------------------------------------------------------------
# Self-check: the system's own artifacts must be clean
# ---------------------------------------------------------------------------


def test_builtin_queries_cover_the_paper():
    names = [name for name, _ in builtin_queries()]
    assert names == ["Q1", "Q2", "Q3", "M1"]


def test_self_check_is_clean():
    report = self_check()
    assert list(report) == [], report.render()


def test_examples_and_benchmarks_are_clean():
    for directory in ("examples", "benchmarks"):
        diags = lint_path(REPO_ROOT / directory)
        errors = [d for d in diags if d.severity >= Severity.WARNING]
        assert errors == [], [d.render() for d in errors]


# ---------------------------------------------------------------------------
# File linting
# ---------------------------------------------------------------------------


def test_lint_rq_file_with_error(tmp_path):
    query_file = tmp_path / "bad.rq"
    query_file.write_text(
        "SELECT ?n WHERE { ?x <http://xmlns.com/foaf/0.1/nmae> ?n }"
    )
    diags = lint_path(query_file)
    assert any(d.rule == "SP004" for d in diags)


def test_lint_unparseable_rq_raises_naming_the_file(tmp_path):
    query_file = tmp_path / "broken.rq"
    query_file.write_text("SELECT WHERE {{{")
    with pytest.raises(SparqlSyntaxError, match="broken.rq: "):
        lint_path(query_file)


def test_lint_unsupported_suffix_raises(tmp_path):
    other = tmp_path / "data.csv"
    other.write_text("a,b\n")
    with pytest.raises(ValueError, match="unsupported file type"):
        lint_path(other)


def test_extract_sparql_strings_finds_queries():
    source = (
        "QUERY = '''SELECT ?s WHERE { ?s ?p ?o }'''\n"
        "FRAGMENT = 'WHERE is this going'\n"
        "F = f'SELECT {x} WHERE'\n"
    )
    found = extract_sparql_strings(source)
    assert len(found) == 1
    assert found[0][0].startswith("SELECT ?s")
    assert found[0][1] == 1


def test_lint_python_file(tmp_path):
    py_file = tmp_path / "mod.py"
    py_file.write_text(
        'Q = "SELECT ?n WHERE { ?x foaf:name ?n . ?x foaf:knows ?x }"\n'
    )
    diags = lint_path(py_file)
    assert [d.rule for d in diags] == ["SP003"]
    assert diags[0].source.endswith("mod.py:1")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_self_check_passes(capsys):
    assert main(["lint", "--self-check"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_cli_lint_nothing_to_do(capsys):
    assert main(["lint"]) == 2
    assert "nothing to lint" in capsys.readouterr().err


def test_cli_lint_unreadable_file_fails(tmp_path, capsys):
    missing = tmp_path / "missing.rq"
    assert main(["lint", str(missing)]) == 1
    assert "error: cannot lint: " in capsys.readouterr().err


def test_cli_lint_reports_unknown_predicate(tmp_path, capsys):
    query_file = tmp_path / "album.rq"
    query_file.write_text(
        "SELECT ?n WHERE { ?x <http://xmlns.com/foaf/0.1/nmae> ?n }"
    )
    assert main(["lint", str(query_file)]) == 1
    out = capsys.readouterr().out
    assert "SP004" in out
    assert "did you mean" in out
    assert "foaf/0.1/name" in out


def test_cli_lint_min_severity_filter(tmp_path, capsys):
    py_file = tmp_path / "warn_only.py"
    py_file.write_text(
        'Q = "SELECT ?n WHERE { ?x foaf:name ?n . ?x foaf:knows ?x }"\n'
    )
    assert main(["lint", "--min-severity", "error", str(py_file)]) == 0
    out = capsys.readouterr().out
    assert "SP003" not in out
    assert "(0 shown, 0 error(s))" in out


def test_cli_lint_queries_and_mapping(capsys):
    assert main(["lint", "--queries", "--mapping"]) == 0
    assert "0 error(s)" in capsys.readouterr().out
