"""D2R mapping linter tests — golden diagnostics for DM002 and DM006."""

import pytest

from repro.analysis import MappingLinter, Severity
from repro.d2r import (
    D2RMapping,
    KeywordSplitMap,
    LinkMap,
    PropertyMap,
    TableMap,
    UriPattern,
)
from repro.rdf import DC, FOAF, SIOCT, URIRef
from repro.relational import Database

KEYWORD = URIRef("http://beta.teamlife.it/vocab#keyword")


@pytest.fixture
def db():
    database = Database("lint")
    database.execute(
        """CREATE TABLE users (
             user_id INTEGER PRIMARY KEY AUTOINCREMENT,
             user_name TEXT NOT NULL
           )"""
    )
    database.execute(
        """CREATE TABLE pictures (
             pid INTEGER PRIMARY KEY AUTOINCREMENT,
             owner_id INTEGER REFERENCES users(user_id),
             title TEXT,
             keywords TEXT,
             rating REAL
           )"""
    )
    return database


def base_mapping():
    mapping = D2RMapping()
    mapping.add(TableMap(
        table="users",
        uri_pattern=UriPattern("http://e/users/{user_id}"),
        rdf_class=FOAF.Person,
        properties=[PropertyMap("user_name", FOAF.name)],
    ))
    mapping.add(TableMap(
        table="pictures",
        uri_pattern=UriPattern("http://e/pictures/{pid}"),
        rdf_class=SIOCT.MicroblogPost,
        properties=[PropertyMap("title", DC.title)],
        links=[LinkMap("owner_id", FOAF.maker, "users")],
        keyword_splits=[KeywordSplitMap("keywords", KEYWORD)],
    ))
    return mapping


def lint(mapping, db):
    return MappingLinter().lint(mapping, db, name="test-mapping")


def only(diags, rule):
    matching = [d for d in diags if d.rule == rule]
    assert len(matching) == 1, f"expected one {rule}, got {diags}"
    return matching[0]


def test_valid_mapping_is_clean(db):
    assert lint(base_mapping(), db) == []


def test_dm002_property_unknown_column(db):
    mapping = base_mapping()
    mapping.table_maps["users"].properties.append(
        PropertyMap("user_nme", FOAF.name)
    )
    diag = only(lint(mapping, db), "DM002")
    assert diag.severity is Severity.ERROR
    assert diag.suggestion == "user_name"


def test_dm006_datatype_column_type_mismatch(db):
    mapping = base_mapping()
    mapping.table_maps["pictures"].properties.append(PropertyMap(
        "rating", URIRef("http://e/rating"),
        datatype="http://www.w3.org/2001/XMLSchema#boolean",
    ))
    diag = only(lint(mapping, db), "DM006")
    assert diag.severity is Severity.ERROR
    assert "REAL" in diag.message


def test_platform_mapping_is_clean():
    from repro.platform import Platform

    platform = Platform()
    assert lint(platform.mapping, platform.db) == []
