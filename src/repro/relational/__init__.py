"""Mini relational engine — the Coppermine-style gallery substrate.

The paper's platform stores content, users and their relationships in a
MySQL database behind a Coppermine photo gallery; :mod:`repro.d2r` lifts
that schema to RDF. This package provides the relational layer: typed
tables with PK/unique/FK constraints, snapshot transactions, and
``CREATE TABLE`` text for declaring the schema.
"""

from .database import Database
from .errors import (
    IntegrityError,
    RelationalError,
    SchemaError,
    SqlSyntaxError,
    TypeMismatchError,
)
from .table import Column, ColumnType, Row, Table

__all__ = [
    "Column",
    "ColumnType",
    "Database",
    "IntegrityError",
    "RelationalError",
    "Row",
    "SchemaError",
    "SqlSyntaxError",
    "Table",
    "TypeMismatchError",
]
