"""Snapshot transaction tests."""

import pytest

from repro.relational import Database, IntegrityError


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT "
        "UNIQUE)"
    )
    database.insert("t", v="one")
    database.insert("t", v="two")
    return database


def values(db):
    return [row["v"] for row in db.table("t").scan()]


class TestCommit:
    def test_clean_exit_commits(self, db):
        with db.transaction():
            db.insert("t", v="three")
        assert len(db.table("t")) == 3


class TestRollback:
    def test_insert_rolled_back(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("t", v="three")
                raise RuntimeError("abort")
        assert len(db.table("t")) == 2
        assert "three" not in values(db)

    def test_update_and_delete_rolled_back(self, db):
        with pytest.raises(ValueError):
            with db.transaction():
                db.table("t").update(1, {"v": "changed"})
                db.table("t").delete(2)
                raise ValueError("abort")
        assert values(db) == ["one", "two"]

    def test_autoincrement_restored(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("t", v="x")  # id 3
                raise RuntimeError("abort")
        row = db.insert("t", v="after")
        assert row["id"] == 3  # counter rolled back too

    def test_unique_index_restored(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.table("t").delete(1)  # v = 'one'
                raise RuntimeError("abort")
        # 'one' is back, so re-inserting it must violate uniqueness
        with pytest.raises(IntegrityError):
            db.insert("t", v="one")

    def test_created_table_dropped_on_rollback(self, db):
        from repro.relational import SchemaError

        with pytest.raises(RuntimeError):
            with db.transaction():
                db.execute("CREATE TABLE fresh (id INTEGER PRIMARY KEY)")
                raise RuntimeError("abort")
        with pytest.raises(SchemaError):
            db.table("fresh")

    def test_integrity_error_inside_transaction(self, db):
        with pytest.raises(IntegrityError):
            with db.transaction():
                db.insert("t", v="new")
                db.insert("t", v="one")  # dup
        # the whole scope rolled back, including the first insert
        assert len(db.table("t")) == 2

    def test_nested_scopes(self, db):
        with db.transaction():
            db.insert("t", v="outer")
            with pytest.raises(RuntimeError):
                with db.transaction():
                    db.insert("t", v="inner")
                    raise RuntimeError("abort inner")
            # inner rolled back, outer insert survives
            assert "inner" not in values(db)
        assert values(db).count("outer") == 1
