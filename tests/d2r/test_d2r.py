"""D2R mapping and dump tests."""

import pytest

from repro.d2r import (
    D2RMapping,
    KeywordSplitMap,
    LinkMap,
    MappingError,
    PropertyMap,
    TableMap,
    UriPattern,
    dump_graph,
    dump_ntriples,
)
from repro.rdf import (
    DC,
    FOAF,
    Literal,
    RDF,
    SIOCT,
    TL_PID,
    TL_USER,
    URIRef,
    load_ntriples,
)
from repro.relational import Database

KEYWORD = URIRef("http://beta.teamlife.it/vocab#keyword")


@pytest.fixture
def gallery_db():
    db = Database("teamlife")
    db.execute(
        """CREATE TABLE users (
             user_id INTEGER PRIMARY KEY AUTOINCREMENT,
             user_name TEXT NOT NULL UNIQUE
           )"""
    )
    db.execute(
        """CREATE TABLE pictures (
             pid INTEGER PRIMARY KEY AUTOINCREMENT,
             owner_id INTEGER REFERENCES users(user_id),
             title TEXT,
             keywords TEXT,
             rating REAL
           )"""
    )
    db.insert("users", user_name="oscar")
    db.insert("users", user_name="walter")
    db.insert("pictures", owner_id=1, title="Mole by night",
              keywords="mole turin night", rating=4.5)
    db.insert("pictures", owner_id=2, title="Colosseum",
              keywords="coliseum rome", rating=5.0)
    db.insert("pictures", owner_id=2, title=None, keywords=None,
              rating=None)
    return db


@pytest.fixture
def gallery_mapping():
    mapping = D2RMapping()
    mapping.add(
        TableMap(
            table="users",
            uri_pattern=UriPattern(str(TL_USER) + "{user_id}"),
            rdf_class=FOAF.Person,
            properties=[PropertyMap("user_name", FOAF.name)],
        )
    )
    mapping.add(
        TableMap(
            table="pictures",
            uri_pattern=UriPattern(str(TL_PID) + "{pid}"),
            rdf_class=SIOCT.MicroblogPost,
            properties=[
                PropertyMap("title", DC.title),
                PropertyMap("rating", URIRef("http://purl.org/stuff/rev#rating")),
            ],
            links=[LinkMap("owner_id", FOAF.maker, "users")],
            keyword_splits=[KeywordSplitMap("keywords", KEYWORD)],
        )
    )
    return mapping


class TestUriPattern:
    def test_expand(self):
        pattern = UriPattern("http://x/pics/{pid}")
        assert pattern.expand({"pid": 7}) == URIRef("http://x/pics/7")

    def test_columns(self):
        assert UriPattern("http://x/{a}/{b}").columns() == ["a", "b"]

    def test_escaping(self):
        pattern = UriPattern("http://x/u/{name}")
        uri = pattern.expand({"name": "walter goix"})
        assert uri == URIRef("http://x/u/walter%20goix")

    def test_unicode_escaping(self):
        uri = UriPattern("http://x/{n}").expand({"n": "città"})
        assert "%C3%A0" in str(uri)

    def test_missing_column(self):
        with pytest.raises(MappingError):
            UriPattern("http://x/{pid}").expand({"other": 1})

    def test_null_column(self):
        with pytest.raises(MappingError):
            UriPattern("http://x/{pid}").expand({"pid": None})


class TestDump:
    def test_rdf_type_emitted(self, gallery_db, gallery_mapping):
        g = dump_graph(gallery_db, gallery_mapping)
        assert (TL_PID["1"], RDF.type, SIOCT.MicroblogPost) in g
        assert (TL_USER["1"], RDF.type, FOAF.Person) in g

    def test_intra_table_properties(self, gallery_db, gallery_mapping):
        g = dump_graph(gallery_db, gallery_mapping)
        assert g.value(TL_PID["1"], DC.title) == Literal("Mole by night")
        rating = g.value(
            TL_PID["2"], URIRef("http://purl.org/stuff/rev#rating")
        )
        assert rating.value == 5.0

    def test_null_columns_skipped(self, gallery_db, gallery_mapping):
        g = dump_graph(gallery_db, gallery_mapping)
        assert g.value(TL_PID["3"], DC.title) is None
        # but the resource still exists with its type triple
        assert (TL_PID["3"], RDF.type, SIOCT.MicroblogPost) in g

    def test_cross_table_link(self, gallery_db, gallery_mapping):
        g = dump_graph(gallery_db, gallery_mapping)
        assert (TL_PID["1"], FOAF.maker, TL_USER["1"]) in g
        assert (TL_PID["2"], FOAF.maker, TL_USER["2"]) in g

    def test_keyword_splitting(self, gallery_db, gallery_mapping):
        g = dump_graph(gallery_db, gallery_mapping)
        keywords = {o.lexical for o in g.objects(TL_PID["1"], KEYWORD)}
        assert keywords == {"mole", "turin", "night"}

    def test_keyword_dedup(self, gallery_db, gallery_mapping):
        gallery_db.insert("pictures", owner_id=1, title="dup",
                          keywords="x x  x")
        g = dump_graph(gallery_db, gallery_mapping)
        keywords = list(g.objects(TL_PID["4"], KEYWORD))
        assert len(keywords) == 1

    def test_ntriples_output_loadable(self, gallery_db, gallery_mapping):
        text = dump_ntriples(gallery_db, gallery_mapping)
        g = load_ntriples(text)
        assert len(g) == len(dump_graph(gallery_db, gallery_mapping))

    def test_ntriples_deterministic(self, gallery_db, gallery_mapping):
        first = dump_ntriples(gallery_db, gallery_mapping)
        second = dump_ntriples(gallery_db, gallery_mapping)
        assert first == second

    def test_link_to_unmapped_table_rejected(self, gallery_db):
        mapping = D2RMapping()
        mapping.add(
            TableMap(
                table="pictures",
                uri_pattern=UriPattern(str(TL_PID) + "{pid}"),
                links=[LinkMap("owner_id", FOAF.maker, "users")],
            )
        )
        with pytest.raises(MappingError):
            dump_ntriples(gallery_db, mapping)

    def test_failed_dump_leaves_target_untouched(self, gallery_db):
        # the dump is materialized before the store is touched: a
        # MappingError raised after the first table already produced
        # triples must not leave the target half-populated (feeding
        # the live generator to add_all would)
        from repro.rdf import Graph

        mapping = D2RMapping()
        mapping.add(
            TableMap(
                table="users",
                uri_pattern=UriPattern(str(TL_USER) + "{user_id}"),
                rdf_class=FOAF.Person,
            )
        )
        mapping.add(
            TableMap(
                table="pictures",
                uri_pattern=UriPattern(str(TL_PID) + "{pid}"),
                links=[LinkMap("owner_id", FOAF.maker, "albums")],
            )
        )
        target = Graph()
        target.add((TL_USER["99"], RDF.type, FOAF.Person))
        with pytest.raises(MappingError):
            dump_graph(gallery_db, mapping, graph=target)
        assert len(target) == 1  # only the pre-existing triple

    def test_dangling_fk_skipped(self, gallery_mapping):
        db = Database()
        db.execute("CREATE TABLE users (user_id INTEGER PRIMARY KEY, "
                   "user_name TEXT)")
        db.execute("CREATE TABLE pictures (pid INTEGER PRIMARY KEY, "
                   "owner_id INTEGER, title TEXT, keywords TEXT, "
                   "rating REAL)")
        db.insert("pictures", pid=1, owner_id=99)
        g = dump_graph(db, gallery_mapping)
        assert list(g.objects(TL_PID["1"], FOAF.maker)) == []


class TestFromDict:
    def test_roundtrip_equivalent(self, gallery_db, gallery_mapping):
        spec = {
            "users": {
                "uri": str(TL_USER) + "{user_id}",
                "class": str(FOAF.Person),
                "properties": [
                    {"column": "user_name", "predicate": str(FOAF.name)},
                ],
            },
            "pictures": {
                "uri": str(TL_PID) + "{pid}",
                "class": str(SIOCT.MicroblogPost),
                "properties": [
                    {"column": "title", "predicate": str(DC.title)},
                    {"column": "rating",
                     "predicate": "http://purl.org/stuff/rev#rating"},
                ],
                "links": [
                    {"column": "owner_id", "predicate": str(FOAF.maker),
                     "table": "users"},
                ],
                "keywords": [
                    {"column": "keywords", "predicate": str(KEYWORD)},
                ],
            },
        }
        from_dict = D2RMapping.from_dict(spec)
        assert dump_ntriples(gallery_db, from_dict) == dump_ntriples(
            gallery_db, gallery_mapping
        )

    def test_missing_uri_rejected(self):
        with pytest.raises(MappingError):
            D2RMapping.from_dict({"t": {"class": "http://x/C"}})

    def test_duplicate_table_rejected(self):
        mapping = D2RMapping()
        table_map = TableMap("t", UriPattern("http://x/{id}"))
        mapping.add(table_map)
        with pytest.raises(MappingError):
            mapping.add(TableMap("t", UriPattern("http://y/{id}")))

    def test_lang_property(self, gallery_db):
        mapping = D2RMapping.from_dict(
            {
                "pictures": {
                    "uri": str(TL_PID) + "{pid}",
                    "properties": [
                        {"column": "title", "predicate": str(DC.title),
                         "lang": "it"},
                    ],
                }
            }
        )
        g = dump_graph(gallery_db, mapping)
        assert g.value(TL_PID["1"], DC.title).lang == "it"
