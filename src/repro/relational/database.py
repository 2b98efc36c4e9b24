"""The database: a registry of tables, foreign keys and transactions.

Rows go in through :meth:`Database.insert`, which checks foreign keys;
they are read, updated and deleted on the :class:`~.table.Table` itself.
:meth:`Database.execute` runs ``CREATE TABLE`` text, the form the
platform's schema is written in.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from .errors import IntegrityError, SchemaError
from .sql import parse_create_table
from .table import Column, Row, Table


class Database:
    """A named collection of tables."""

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self.tables: Dict[str, Table] = {}

    # ------------------------------------------------------------------
    # Programmatic API
    # ------------------------------------------------------------------
    def create_table(self, name: str, columns: Iterable[Column]) -> Table:
        if name in self.tables:
            raise SchemaError(f"table {name!r} already exists")
        table = Table(name, columns)
        for column in table.columns:
            if column.references is not None:
                ref_table, ref_column = column.references
                if ref_table not in self.tables:
                    raise SchemaError(
                        f"{name}.{column.name} references unknown table "
                        f"{ref_table!r}"
                    )
                self.tables[ref_table].column(ref_column)
        self.tables[name] = table
        return table

    def table(self, name: str) -> Table:
        if name not in self.tables:
            raise SchemaError(f"no such table: {name!r}")
        return self.tables[name]

    def insert(self, table_name: str, **values: Any) -> Row:
        """Insert with FK enforcement; returns the stored row."""
        table = self.table(table_name)
        for column in table.columns:
            if column.references is None or column.name not in values:
                continue
            value = values[column.name]
            if value is None:
                continue
            ref_table, ref_column = column.references
            target = self.table(ref_table)
            if target.primary_key and target.primary_key.name == ref_column:
                exists = target.get(value) is not None
            else:
                exists = any(
                    row[ref_column] == value for row in target.rows
                )
            if not exists:
                raise IntegrityError(
                    f"{table_name}.{column.name}={value!r} references "
                    f"missing {ref_table}.{ref_column}"
                )
        return table.insert(values)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def transaction(self) -> "_Transaction":
        """Snapshot-based transaction scope::

            with db.transaction():
                db.insert("pictures", ...)
                db.table("users").update(...)  # an exception rolls both back

        Commits on clean exit, restores every table (and drops tables
        created inside the scope) on exception.
        """
        return _Transaction(self)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def execute(self, text: str) -> None:
        """Create the table one ``CREATE TABLE`` statement declares."""
        name, columns = parse_create_table(text)
        self.create_table(name, columns)

    def __repr__(self) -> str:
        return f"Database({self.name!r}, tables={sorted(self.tables)})"


class _Transaction:
    """Context manager implementing snapshot/rollback semantics."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self._snapshots: Dict[str, dict] = {}
        self._tables_before: Optional[set] = None

    def __enter__(self) -> "_Transaction":
        self._tables_before = set(self.db.tables)
        self._snapshots = {
            name: table.snapshot()
            for name, table in self.db.tables.items()
        }
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            return False  # commit: keep everything
        # rollback: drop tables created inside the scope, restore others
        for name in list(self.db.tables):
            if name not in self._tables_before:
                del self.db.tables[name]
        for name, state in self._snapshots.items():
            if name in self.db.tables:
                self.db.tables[name].restore(state)
        return False  # re-raise
