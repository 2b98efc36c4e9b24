"""The package reads no environment variable.

Every setting a run takes arrives as a command-line flag or an
argument; an environment variable would be a second, unlisted way in.
``REPRO_SANITIZE`` is the test suite's own switch and is read in
``tests/conftest.py``, outside the package.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent

#: What reads the environment, as attributes of ``os`` or imported
#: from it.
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree: ast.AST):
    """``(line, name)`` of each read of the environment in ``tree``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ENVIRONMENT
        ):
            yield node.lineno, f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENVIRONMENT:
                    yield node.lineno, f"from os import {alias.name}"


def test_the_walk_finds_each_way_of_reading():
    code = (
        "import os\n"
        "from os import getenv\n"
        "a = os.environ.get('X')\n"
        "b = os.getenv('Y')\n"
    )
    assert sorted(environment_reads(ast.parse(code))) == [
        (2, "from os import getenv"),
        (3, "os.environ"),
        (4, "os.getenv"),
    ]


def test_no_module_reads_the_environment():
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in environment_reads(
            ast.parse(path.read_text(encoding="utf-8"))
        )
    ]
    assert found == []
