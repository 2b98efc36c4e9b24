"""The analysis package imports its submodules on first use.

``repro.analysis`` names every public class and function of the
linters, the planner, the statistics and the concurrency analyzer, but
a name's submodule is imported only when the name is first asked for:
the executor's first statistics lookup (``repro.analysis.stats``) does
not import the linters or the concurrency analyzer.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.analysis as analysis

SRC = str(Path(repro.__file__).resolve().parents[1])


def _in_a_process(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env, check=True, capture_output=True, text=True,
    ).stdout.strip()


@pytest.mark.parametrize("name", analysis.__all__)
def test_every_public_name_imports_from_its_submodule(name):
    module = importlib.import_module(
        f"repro.analysis.{analysis._EXPORTS[name]}"
    )
    namespace = {}
    exec(f"from repro.analysis import {name}", namespace)
    assert namespace[name] is getattr(module, name)


def test_every_public_name_is_listed_and_nothing_else_resolves():
    assert set(analysis.__all__) <= set(dir(analysis))
    with pytest.raises(AttributeError):
        analysis.NoSuchName


def test_statistics_import_leaves_the_linters_out():
    # neither the executor's statistics nor planning and running Q1
    # loads a linter: the planner shares the expression walks of
    # repro.sparql.ast with the SPARQL linter
    q1 = (
        "from repro.core.albums import geo_album\n"
        "from repro.platform import Platform\n"
        "from repro.sparql import Evaluator\n"
        "Evaluator(Platform().union_graph()).evaluate(geo_album().query)\n"
    )
    for code, used in (
        ("import repro.analysis.stats\n", "stats"),
        (q1, "plan"),
    ):
        loaded = _in_a_process(
            "import sys\n" + code + "print(sorted(m for m in sys.modules"
            " if m.startswith('repro.analysis.')))\n"
        )
        assert f"repro.analysis.{used}" in loaded
        for linter in ("concurrency", "_pysource", "sanitizer",
                       "d2r_lint", "shapes", "self_check", "sparql_lint",
                       "vocabulary", "rules", "diagnostics"):
            assert f"repro.analysis.{linter}" not in loaded, code


def test_self_check_is_the_function_whichever_name_loads_its_module():
    # importing the submodule binds it on the package under the very
    # name of the function it defines
    printed = _in_a_process(
        "from repro.analysis import builtin_queries\n"
        "from repro.analysis import self_check\n"
        "import repro.analysis\n"
        "print(callable(self_check), callable(repro.analysis.self_check),"
        " self_check.__module__)\n"
    )
    assert printed == "True True repro.analysis.self_check"
