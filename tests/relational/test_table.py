"""Table/column storage-layer tests."""

import pytest
from hypothesis import given, strategies as st

from repro.relational import (
    Column,
    ColumnType,
    IntegrityError,
    SchemaError,
    Table,
    TypeMismatchError,
)


def make_users_table():
    return Table(
        "users",
        [
            Column("user_id", ColumnType.INTEGER, primary_key=True,
                   autoincrement=True),
            Column("user_name", ColumnType.TEXT, nullable=False,
                   unique=True),
            Column("user_email", ColumnType.TEXT),
            Column("active", ColumnType.BOOLEAN, default=True),
        ],
    )


class TestColumnType:
    def test_from_sql_aliases(self):
        assert ColumnType.from_sql("INT") is ColumnType.INTEGER
        assert ColumnType.from_sql("varchar(255)") is ColumnType.TEXT
        assert ColumnType.from_sql("DOUBLE") is ColumnType.REAL
        assert ColumnType.from_sql("datetime") is ColumnType.TIMESTAMP

    def test_from_sql_unknown(self):
        with pytest.raises(SchemaError):
            ColumnType.from_sql("BLOB")

    def test_integer_coerce(self):
        assert ColumnType.INTEGER.coerce(5) == 5
        assert ColumnType.INTEGER.coerce("7") == 7

    def test_integer_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            ColumnType.INTEGER.coerce(True)

    def test_integer_rejects_text(self):
        with pytest.raises(TypeMismatchError):
            ColumnType.INTEGER.coerce("abc")

    def test_real_coerce(self):
        assert ColumnType.REAL.coerce(3) == 3.0
        assert ColumnType.REAL.coerce("2.5") == 2.5

    def test_text_rejects_number(self):
        with pytest.raises(TypeMismatchError):
            ColumnType.TEXT.coerce(5)

    def test_boolean_accepts_01(self):
        assert ColumnType.BOOLEAN.coerce(1) is True
        assert ColumnType.BOOLEAN.coerce(0) is False

    def test_none_passthrough(self):
        assert ColumnType.TEXT.coerce(None) is None

    def test_timestamp_accepts_epoch_and_iso(self):
        assert ColumnType.TIMESTAMP.coerce(1325376000) == 1325376000
        assert ColumnType.TIMESTAMP.coerce("2012-01-01T00:00:00") \
            == "2012-01-01T00:00:00"


class TestSchemaValidation:
    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [Column("a", ColumnType.TEXT),
                        Column("a", ColumnType.INTEGER)])

    def test_multiple_pks_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [
                Column("a", ColumnType.INTEGER, primary_key=True),
                Column("b", ColumnType.INTEGER, primary_key=True),
            ])

    def test_unknown_column_lookup(self):
        table = make_users_table()
        with pytest.raises(SchemaError):
            table.column("nope")


class TestInsert:
    def test_autoincrement(self):
        table = make_users_table()
        row1 = table.insert({"user_name": "oscar"})
        row2 = table.insert({"user_name": "walter"})
        assert row1["user_id"] == 1
        assert row2["user_id"] == 2

    def test_autoincrement_respects_explicit_values(self):
        table = make_users_table()
        table.insert({"user_id": 10, "user_name": "oscar"})
        row = table.insert({"user_name": "walter"})
        assert row["user_id"] == 11

    def test_default_applied(self):
        table = make_users_table()
        row = table.insert({"user_name": "oscar"})
        assert row["active"] is True

    def test_pk_duplicate_rejected(self):
        table = make_users_table()
        table.insert({"user_id": 1, "user_name": "oscar"})
        with pytest.raises(IntegrityError):
            table.insert({"user_id": 1, "user_name": "walter"})

    def test_unique_violation(self):
        table = make_users_table()
        table.insert({"user_name": "oscar"})
        with pytest.raises(IntegrityError):
            table.insert({"user_name": "oscar"})

    def test_not_null_enforced(self):
        table = make_users_table()
        with pytest.raises(IntegrityError):
            table.insert({"user_email": "x@y.z"})

    def test_unknown_column_rejected(self):
        table = make_users_table()
        with pytest.raises(SchemaError):
            table.insert({"user_name": "oscar", "bogus": 1})

    def test_type_checked(self):
        table = make_users_table()
        with pytest.raises(TypeMismatchError):
            table.insert({"user_name": 42})

    def test_returned_row_is_copy(self):
        table = make_users_table()
        row = table.insert({"user_name": "oscar"})
        row["user_name"] = "mutated"
        assert table.get(row["user_id"])["user_name"] == "oscar"


class TestAccess:
    def test_get_by_pk(self):
        table = make_users_table()
        table.insert({"user_name": "oscar"})
        assert table.get(1)["user_name"] == "oscar"
        assert table.get(99) is None

    def test_scan_order(self):
        table = make_users_table()
        for name in ("a", "b", "c"):
            table.insert({"user_name": name})
        assert [r["user_name"] for r in table.scan()] == ["a", "b", "c"]

    def test_len(self):
        table = make_users_table()
        table.insert({"user_name": "a"})
        assert len(table) == 1


class TestDeleteUpdate:
    def test_delete_frees_pk(self):
        table = make_users_table()
        table.insert({"user_id": 1, "user_name": "a"})
        table.delete(1)
        table.insert({"user_id": 1, "user_name": "b"})  # no IntegrityError
        assert table.get(1)["user_name"] == "b"

    def test_delete_frees_unique(self):
        table = make_users_table()
        table.insert({"user_name": "a"})
        table.delete(1)
        table.insert({"user_name": "a"})
        assert len(table) == 1

    def test_update_pk_rejected(self):
        table = make_users_table()
        table.insert({"user_name": "a"})
        with pytest.raises(IntegrityError):
            table.update(1, {"user_id": 5})

    def test_update_unique_conflict(self):
        table = make_users_table()
        table.insert({"user_name": "a"})
        table.insert({"user_name": "b"})
        with pytest.raises(IntegrityError):
            table.update(2, {"user_name": "a"})

    def test_update_unique_same_row_ok(self):
        table = make_users_table()
        table.insert({"user_name": "a"})
        table.update(1, {"user_name": "a"})
        assert len(table) == 1

    def test_update_to_null(self):
        table = make_users_table()
        table.insert({"user_name": "a", "user_email": "a@example.org"})
        table.update(1, {"user_email": None})
        assert table.get(1)["user_email"] is None

    def test_not_null_update_rejected(self):
        table = make_users_table()
        table.insert({"user_name": "a"})
        with pytest.raises(IntegrityError):
            table.update(1, {"user_name": None})
        assert table.get(1)["user_name"] == "a"

    def test_delete_by_primary_key(self):
        table = make_users_table()
        for name in ("a", "b", "c"):
            table.insert({"user_name": name})
        assert table.delete(2) is True
        assert table.delete(2) is False
        assert [r["user_name"] for r in table.scan()] == ["a", "c"]
        assert table.get(2) is None
        # PK and unique value are free again
        table.insert({"user_id": 2, "user_name": "b"})
        assert table.get(2)["user_name"] == "b"

    def test_update_by_primary_key(self):
        table = make_users_table()
        table.insert({"user_name": "a", "user_email": "old"})
        table.insert({"user_name": "b"})
        assert table.update(1, {"user_email": "new"}) is True
        assert table.update(99, {"user_email": "new"}) is False
        assert table.get(1)["user_email"] == "new"
        assert table.get(2)["user_email"] is None
        # the PK and unique checks
        with pytest.raises(IntegrityError):
            table.update(1, {"user_id": 5})
        with pytest.raises(IntegrityError):
            table.update(2, {"user_name": "a"})
        table.update(2, {"user_name": "z"})
        table.insert({"user_name": "b"})  # the old unique value is free


@given(st.lists(st.integers(0, 50), unique=True, max_size=30))
def test_pk_index_consistent_after_inserts(pks):
    table = Table(
        "t",
        [Column("id", ColumnType.INTEGER, primary_key=True),
         Column("v", ColumnType.INTEGER)],
    )
    for pk in pks:
        table.insert({"id": pk, "v": pk * 2})
    for pk in pks:
        assert table.get(pk) == {"id": pk, "v": pk * 2}
    assert len(table) == len(pks)
