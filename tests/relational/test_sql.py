"""SQL DDL tests: ``CREATE TABLE`` text through Database.execute."""

import pytest

from repro.relational import (
    ColumnType,
    Database,
    IntegrityError,
    SchemaError,
    SqlSyntaxError,
)


@pytest.fixture
def gallery():
    """A slice of the Coppermine-like schema the paper's platform uses."""
    db = Database("teamlife")
    db.execute(
        """CREATE TABLE users (
             user_id INTEGER PRIMARY KEY AUTOINCREMENT,
             user_name VARCHAR(60) NOT NULL UNIQUE,
             user_email TEXT
           )"""
    )
    db.execute(
        """CREATE TABLE pictures (
             pid INTEGER PRIMARY KEY AUTOINCREMENT,
             owner_id INTEGER NOT NULL REFERENCES users(user_id),
             title TEXT,
             keywords TEXT,
             rating REAL DEFAULT 0.0,
             ctime INTEGER
           )"""
    )
    db.insert("users", user_name="oscar", user_email="oscar@example.org")
    return db


class TestCreateInsert:
    def test_tables_created(self, gallery):
        assert set(gallery.tables) == {"users", "pictures"}
        assert "pictures" in repr(gallery)
        users = gallery.table("users")
        assert users.column_names == ["user_id", "user_name", "user_email"]
        assert users.primary_key.name == "user_id"
        assert users.primary_key.autoincrement
        name = users.column("user_name")
        assert name.type is ColumnType.TEXT
        assert name.unique and not name.nullable
        owner = gallery.table("pictures").column("owner_id")
        assert owner.references == ("users", "user_id")

    def test_duplicate_table_rejected(self, gallery):
        with pytest.raises(SchemaError):
            gallery.execute("CREATE TABLE users (x INT)")

    def test_fk_enforced(self, gallery):
        with pytest.raises(IntegrityError):
            gallery.insert("pictures", owner_id=99, title="x")

    def test_fk_to_unknown_table_rejected(self):
        db = Database()
        with pytest.raises(SchemaError):
            db.execute(
                "CREATE TABLE t (x INT REFERENCES nope(id))"
            )

    def test_string_escape(self):
        db = Database()
        db.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, "
            "name TEXT DEFAULT 'O''Brien', score REAL DEFAULT -1.5)"
        )
        row = db.insert("t")
        assert row["name"] == "O'Brien"
        assert row["score"] == -1.5


class TestParser:
    def test_trailing_garbage(self):
        with pytest.raises(SqlSyntaxError):
            Database().execute("CREATE TABLE t (a INT) nonsense extra")

    def test_unsupported_statement(self):
        with pytest.raises(SqlSyntaxError):
            Database().execute("DROP TABLE t")

    def test_select_rejected(self, gallery):
        with pytest.raises(SqlSyntaxError, match="unsupported statement"):
            gallery.execute("SELECT * FROM users")

    def test_bad_character(self):
        with pytest.raises(SqlSyntaxError):
            Database().execute("CREATE TABLE t (a @ INT)")

    def test_semicolon_accepted(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT);")
        assert db.table("t").column_names == ["a"]
