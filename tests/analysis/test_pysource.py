"""The CC analyzer's Python-source driver: directory walk and read;
what cannot be read or parsed raises."""

import pytest

from repro.analysis._pysource import read_sources
from repro.analysis.concurrency import analyze_paths


def test_directories_are_walked_sorted(tmp_path):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "b.py").write_text("B = 1\n")
    (tmp_path / "pkg" / "sub" / "a.py").write_text("A = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert list(read_sources([tmp_path / "pkg"])) == [
        (str(tmp_path / "pkg" / "b.py"), "B = 1\n"),
        (str(tmp_path / "pkg" / "sub" / "a.py"), "A = 1\n"),
    ]


def test_unreadable_path_and_syntax_error_raise(tmp_path):
    with pytest.raises(FileNotFoundError):
        list(read_sources([tmp_path / "missing.py"]))
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n    pass\n")
    with pytest.raises(SyntaxError) as excinfo:
        analyze_paths([broken])
    assert excinfo.value.filename == str(broken)
