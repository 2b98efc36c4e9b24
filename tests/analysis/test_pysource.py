"""The CC analyzer's Python-source driver: directory walk, read and
parse, with ``SP000`` for what cannot be."""

from pathlib import Path

from repro.analysis._pysource import parse_module, read_sources
from repro.analysis.concurrency import analyze_paths


def test_directories_are_walked_sorted_and_unreadable_files_reported(
    tmp_path,
):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "b.py").write_text("B = 1\n")
    (tmp_path / "pkg" / "sub" / "a.py").write_text("A = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    missing = tmp_path / "missing.py"
    diags = []
    read = list(read_sources([missing, tmp_path / "pkg"], diags))
    assert read == [
        (str(tmp_path / "pkg" / "b.py"), "B = 1\n"),
        (str(tmp_path / "pkg" / "sub" / "a.py"), "A = 1\n"),
    ]
    assert [(d.rule, d.source) for d in diags] == [
        ("SP000", str(missing))
    ]
    assert diags[0].message.startswith("cannot read file: ")


def test_parse_module_returns_tree_and_docstring():
    diags = []
    tree, docstring = parse_module(
        '"""Concurrency: immutable"""\nX = 1\n', "m.py", "bad", diags
    )
    assert docstring == "Concurrency: immutable" and not diags
    assert parse_module("X = 1\n", "m.py", "bad", diags)[1] == ""
    assert parse_module("def broken(:\n", "m.py", "bad", diags) == (
        None, ""
    )
    assert [d.rule for d in diags] == ["SP000"]
    assert diags[0].message.startswith("bad: ")
    assert diags[0].source == "m.py"


def test_unreadable_path_and_syntax_error_each_yield_one_sp000(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n    pass\n")
    gone = Path("/nonexistent/code.py")
    (cc_read, cc_parse) = analyze_paths([gone, broken])
    assert cc_read.message.startswith("cannot read file: ")
    assert cc_parse.message.startswith("cannot parse python source: ")
    assert {cc_read.rule, cc_parse.rule} == {"SP000"}
