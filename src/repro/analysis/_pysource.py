"""Python-source scaffolding of the CC analyzer.

:mod:`repro.analysis.concurrency` parses the package's own source with
:mod:`ast`; what it needs before any rule runs lives here: the files
below the given paths read and parsed (``SP000`` for the ones that
cannot be), byte spans for diagnostics, per-line
``# cc: allow[=RULE,...]`` suppression pragmas, dotted names of
``Name``/``Attribute`` chains, and import-alias resolution.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .diagnostics import Diagnostic, Span
from .rules import make


def read_sources(
    paths: Iterable[Path], diags: List[Diagnostic]
) -> Iterator[Tuple[str, str]]:
    """``(name, text)`` of every path; a directory stands for the
    ``*.py`` files below it, sorted. A file that cannot be read is
    reported into ``diags`` as ``SP000`` and skipped."""
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from read_sources(sorted(path.rglob("*.py")), diags)
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            diags.append(make(
                "SP000", f"cannot read file: {exc}", source=str(path)
            ))
            continue
        yield str(path), text


def parse_module(
    text: str, name: str, complaint: str, diags: List[Diagnostic]
) -> Tuple[Optional[ast.Module], str]:
    """The parsed module and its docstring (``""`` without one); a
    syntax error is reported into ``diags`` as ``SP000 <complaint>: …``
    and gives ``(None, "")``."""
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        diags.append(make("SP000", f"{complaint}: {exc}", source=name))
        return None, ""
    return tree, ast.get_docstring(tree) or ""


#: ``# cc: allow=CC001,CC003``, or bare ``# cc: allow`` for every rule.
_PRAGMA = re.compile(
    r"#\s*cc:\s*allow(?:\s*=\s*(?P<rules>[A-Z0-9,\s]+))?"
)


class SourceFile:
    """Line-offset math and ``# cc: allow`` pragma lookup for one
    source file (a bare pragma suppresses every rule on its line)."""

    def __init__(self, text: str, name: str) -> None:
        self.text = text
        self.name = name
        self.line_starts = [0]
        for line in text.splitlines(keepends=True):
            self.line_starts.append(self.line_starts[-1] + len(line))
        #: ``lineno -> allowed rule ids`` (``None`` = all rules)
        self.pragmas: Dict[int, Optional[Set[str]]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = _PRAGMA.search(line)
            if not match:
                continue
            rules = match.group("rules")
            if rules is None:
                self.pragmas[lineno] = None
            else:
                self.pragmas[lineno] = {
                    r.strip() for r in rules.split(",") if r.strip()
                }

    def span(self, node: ast.AST) -> Span:
        start = self.line_starts[node.lineno - 1] + node.col_offset
        end_lineno = getattr(node, "end_lineno", None) or node.lineno
        end_col = getattr(node, "end_col_offset", None)
        end = (
            start if end_col is None
            else self.line_starts[end_lineno - 1] + end_col
        )
        return Span(start, max(end, start))

    def suppressed(self, rule_id: str, lineno: int) -> bool:
        if lineno not in self.pragmas:
            return False
        allowed = self.pragmas[lineno]
        return allowed is None or rule_id in allowed


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportMap:
    """Resolve local names back to dotted module paths.

    Relative imports keep the module name as written; bare
    ``from . import x`` forms are skipped.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: Dict[str, str] = {}
        self.modules: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules.add(alias.name)
                    self.aliases[alias.asname or alias.name] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom):
                origin = node.module or ""
                if not origin:
                    continue
                self.modules.add(origin)
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = (
                        f"{origin}.{alias.name}"
                    )

    def resolve(self, dotted: Optional[str]) -> Optional[str]:
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        resolved = self.aliases.get(head)
        if resolved is None:
            return dotted
        return f"{resolved}.{rest}" if rest else resolved

    @property
    def threaded(self) -> bool:
        """Does the module import threading machinery at all?"""
        return any(
            m == "threading" or m.startswith("concurrent")
            for m in self.modules
        )
