"""SQL DDL: ``CREATE TABLE`` text to a table name and its columns.

The platform states its Coppermine-style schema as ``CREATE TABLE``
statements (:data:`repro.platform.gallery._SCHEMA`) with column
constraints: PRIMARY KEY, AUTOINCREMENT, NOT NULL, UNIQUE, DEFAULT and
REFERENCES. Rows go in and out through the table API
(:meth:`~repro.relational.database.Database.insert`,
:class:`~repro.relational.table.Table`); there is no query language.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from .errors import SqlSyntaxError
from .table import Column, ColumnType

_KEYWORDS = frozenset(
    {
        "CREATE", "TABLE", "NOT", "NULL", "PRIMARY", "KEY", "UNIQUE",
        "DEFAULT", "REFERENCES", "AUTOINCREMENT", "TRUE", "FALSE",
    }
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|--[^\n]*)
  | (?P<number>[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<punct>[(),;])
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class SqlToken:
    kind: str  # keyword | name | number | string | punct | eof
    text: str
    pos: int


def tokenize_sql(text: str) -> Iterator[SqlToken]:
    """The tokens of ``text``, read as they are asked for, then ``eof``."""
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise SqlSyntaxError(
                f"unexpected character {text[pos]!r} at offset {pos}"
            )
        kind = match.lastgroup or ""
        value = match.group()
        start = pos
        pos = match.end()
        if kind == "ws":
            continue
        if kind == "name" and value.upper() in _KEYWORDS:
            yield SqlToken("keyword", value.upper(), start)
        else:
            yield SqlToken(kind, value, start)
    yield SqlToken("eof", "", len(text))


class _DdlParser:
    """Reads one token ahead, so a statement that is not ``CREATE
    TABLE`` is refused before the rest of its text is tokenized."""

    def __init__(self, text: str) -> None:
        self._tokens = tokenize_sql(text)
        self._token = next(self._tokens)

    def _peek(self) -> SqlToken:
        return self._token

    def _next(self) -> SqlToken:
        token = self._token
        if token.kind != "eof":
            self._token = next(self._tokens)
        return token

    def _accept_keyword(self, name: str) -> bool:
        token = self._peek()
        if token.kind == "keyword" and token.text == name:
            self._next()
            return True
        return False

    def _expect_keyword(self, name: str) -> None:
        token = self._next()
        if token.kind != "keyword" or token.text != name:
            raise SqlSyntaxError(
                f"expected {name}, got {token.text!r} at offset {token.pos}"
            )

    def _accept_punct(self, text: str) -> bool:
        token = self._peek()
        if token.kind == "punct" and token.text == text:
            self._next()
            return True
        return False

    def _expect_punct(self, text: str) -> None:
        token = self._next()
        if token.kind != "punct" or token.text != text:
            raise SqlSyntaxError(
                f"expected {text!r}, got {token.text!r} at offset {token.pos}"
            )

    def _expect_name(self) -> str:
        token = self._next()
        if token.kind != "name":
            raise SqlSyntaxError(
                f"expected identifier, got {token.text!r} "
                f"at offset {token.pos}"
            )
        return token.text

    # ------------------------------------------------------------------
    def parse(self) -> Tuple[str, List[Column]]:
        token = self._peek()
        if token.kind != "keyword" or token.text != "CREATE":
            raise SqlSyntaxError(f"unsupported statement: {token.text!r}")
        self._next()
        self._expect_keyword("TABLE")
        table = self._expect_name()
        self._expect_punct("(")
        columns = [self._parse_column_def()]
        while self._accept_punct(","):
            columns.append(self._parse_column_def())
        self._expect_punct(")")
        self._accept_punct(";")
        tail = self._peek()
        if tail.kind != "eof":
            raise SqlSyntaxError(f"trailing input: {tail.text!r}")
        return table, columns

    def _parse_column_def(self) -> Column:
        name = self._expect_name()
        type_token = self._next()
        if type_token.kind != "name":
            raise SqlSyntaxError(
                f"expected column type, got {type_token.text!r}"
            )
        # consume optional (n) length spec
        if self._accept_punct("("):
            self._next()
            self._expect_punct(")")
        primary_key = not_null = unique = autoincrement = False
        default: Any = None
        references: Optional[Tuple[str, str]] = None
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                primary_key = True
            elif self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                not_null = True
            elif self._accept_keyword("UNIQUE"):
                unique = True
            elif self._accept_keyword("AUTOINCREMENT"):
                autoincrement = True
            elif self._accept_keyword("DEFAULT"):
                default = self._parse_literal()
            elif self._accept_keyword("REFERENCES"):
                ref_table = self._expect_name()
                self._expect_punct("(")
                ref_column = self._expect_name()
                self._expect_punct(")")
                references = (ref_table, ref_column)
            else:
                break
        return Column(
            name=name,
            type=ColumnType.from_sql(type_token.text),
            primary_key=primary_key,
            nullable=not (not_null or primary_key),
            unique=unique,
            autoincrement=autoincrement,
            default=default,
            references=references,
        )

    def _parse_literal(self) -> Any:
        token = self._next()
        if token.kind == "number":
            text = token.text
            if "." in text or "e" in text or "E" in text:
                return float(text)
            return int(text)
        if token.kind == "string":
            return token.text[1:-1].replace("''", "'")
        if token.kind == "keyword" and token.text == "NULL":
            return None
        if token.kind == "keyword" and token.text == "TRUE":
            return True
        if token.kind == "keyword" and token.text == "FALSE":
            return False
        raise SqlSyntaxError(f"expected literal, got {token.text!r}")


def parse_create_table(text: str) -> Tuple[str, List[Column]]:
    """The table name and columns of one ``CREATE TABLE`` statement;
    any other statement raises :class:`SqlSyntaxError`."""
    return _DdlParser(text).parse()
