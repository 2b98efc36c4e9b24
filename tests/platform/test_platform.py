"""End-to-end platform tests: the paper's full scenario.

Builds the Turin scenario on the real platform — users, friendships,
uploads with context, semanticization — then runs the paper's queries
Q1–Q3, the mashup and the mobile search against the triple store.
"""

import pytest

from repro.core import geo_album, rated_album, run_mashup, social_album
from repro.platform import (
    Capture,
    MediaType,
    Platform,
    SearchInterface,
    by_place_type,
    by_user,
)
from repro.rdf import DCTERMS, FOAF, RDF, SIOCT, TL_PID, TL_USER
from repro.sparql import Point

MOLE = Point(7.6934, 45.0692)
NEAR_MOLE = Point(7.6930, 45.0690)
NEAR_MOLE_2 = Point(7.6938, 45.0695)
FAR_AWAY = Point(7.6500, 45.0300)


#: Ratings of pictures 1-4: walter's two near the Mole are 1 and 4.
RATINGS = (5.0, 3.0, 4.0, 2.0)


def _turin(ratings=RATINGS):
    p = Platform()
    p.register_user("oscar", "Oscar Rodriguez")
    p.register_user(
        "walter", "Walter Goix",
        external_accounts=("http://twitter.com/wgoix",),
    )
    p.register_user("carmen", "Carmen Criminisi")
    p.add_friendship("oscar", "walter")

    # walter photographs the Mole (friend of oscar, near the monument)
    p.upload(Capture(
        username="walter",
        title="Tramonto sulla Mole Antonelliana",
        tags=("mole", "tramonto"),
        timestamp=1000,
        point=NEAR_MOLE,
    ))
    # carmen photographs the Mole too (NOT a friend of oscar)
    p.upload(Capture(
        username="carmen",
        title="Mole Antonelliana by night",
        tags=("night",),
        timestamp=1010,
        point=NEAR_MOLE_2,
    ))
    # walter photographs far from the Mole
    p.upload(Capture(
        username="walter",
        title="periferia di Torino",
        tags=(),
        timestamp=2000,
        point=FAR_AWAY,
    ))
    # a second walter picture near the Mole with a low rating
    p.upload(Capture(
        username="walter",
        title="another Mole picture",
        tags=("mole",),
        timestamp=3000,
        point=NEAR_MOLE,
    ))
    for pid, rating in enumerate(ratings, start=1):
        p.rate(pid, rating)
    p.semanticize()
    return p


@pytest.fixture(scope="module")
def platform():
    return _turin()


class TestUploadPipeline:
    def test_context_tags_attached(self, platform):
        item = platform.content(1)
        assert any(t.startswith("address:city=") for t in
                   item.context_tags)
        assert any(t.startswith("cell:cgi=") for t in item.context_tags)

    def test_nearby_buddy_tag(self, platform):
        # carmen uploaded at 1010; walter's position at 1000 is nearby,
        # but they are not friends — so no people tag for carmen
        carmen_item = platform.content(2)
        assert not any(
            t.startswith("people:") for t in carmen_item.context_tags
        )

    def test_keywords_column_space_separated(self, platform):
        row = platform.db.table("pictures").get(1)
        assert "mole" in row["keywords"].split()
        assert any(
            k.startswith("address:city=")
            for k in row["keywords"].split()
        )

    def test_geometry_stored_as_wkt(self, platform):
        row = platform.db.table("pictures").get(1)
        assert row["geometry"].startswith("POINT(")

    def test_rating_bounds(self, platform):
        with pytest.raises(ValueError):
            platform.rate(1, 9.0)


class TestSemanticization:
    def test_d2r_types(self, platform):
        g = platform.union_graph()
        assert (TL_PID["1"], RDF.type, SIOCT.MicroblogPost) in g
        assert (TL_USER.walter, RDF.type, FOAF.Person) in g

    def test_friendship_both_directions(self, platform):
        g = platform.union_graph()
        assert (TL_USER.oscar, FOAF.knows, TL_USER.walter) in g
        assert (TL_USER.walter, FOAF.knows, TL_USER.oscar) in g

    def test_keyword_triples_split(self, platform):
        from repro.platform import TLV

        g = platform.union_graph()
        keywords = {
            str(o) for o in g.objects(TL_PID["1"], TLV.keyword)
        }
        assert "mole" in keywords
        assert "tramonto" in keywords

    def test_semantic_annotation_attached(self, platform):
        from repro.rdf import DBPR

        g = platform.union_graph()
        subjects = set(g.objects(TL_PID["1"], DCTERMS.subject))
        assert DBPR.Mole_Antonelliana in subjects

    def test_location_link(self, platform):
        from repro.lod.geonames import geonames_uri
        from repro.platform import TLV

        g = platform.union_graph()
        assert (
            TL_PID["1"], TLV.location, geonames_uri(3165524)
        ) in g

    def test_annotation_result_recorded(self, platform):
        result = platform.annotation_result(1)
        assert result is not None
        assert result.language == "it"

    def test_removing_the_last_tag_clears_keyword_triples(self):
        # no position, no buddies: the item carries no context tag, so
        # dropping its user tags leaves the keywords column NULL
        from repro.platform import TLV

        p = Platform()
        p.register_user("ada")
        item = p.upload(Capture(
            username="ada", title="untagged", tags=("mole", "night"),
            timestamp=5,
        ))
        assert item.context_tags == []
        assert str(TLV.keyword) in p.dump_ntriples()

        p.edit_content(item.pid, tags=[])
        assert p.content(item.pid).plain_tags == []
        assert p.db.table("pictures").get(item.pid)["keywords"] is None
        assert str(TLV.keyword) not in p.dump_ntriples()
        assert list(
            p.union_graph().objects(item.resource, TLV.keyword)
        ) == []

    def test_dump_ntriples_loadable(self, platform):
        from repro.rdf import load_ntriples

        dump = platform.dump_ntriples()
        graph = load_ntriples(dump)
        assert len(graph) > 20


class TestPaperQueriesOnPlatform:
    def test_q1_geo_album(self, platform):
        album = geo_album("Mole Antonelliana", radius_km=0.3)
        links = set(album.links(platform.evaluator()))
        items = {platform.content(pid).media_url for pid in (1, 2, 4)}
        assert links == items

    def test_q2_social_album(self, platform):
        album = social_album("Mole Antonelliana", friend_of="oscar")
        links = set(album.links(platform.evaluator()))
        # carmen's picture drops out
        items = {platform.content(pid).media_url for pid in (1, 4)}
        assert links == items

    def test_q3_rating_order(self, platform):
        # walter's two pictures near the Mole rated both ways round: rows
        # left in the order the pattern match yields them fail one
        album = rated_album("Mole Antonelliana", friend_of="oscar")
        swapped = _turin((2.0, 3.0, 4.0, 5.0))
        for rated, order in ((platform, (1, 4)), (swapped, (4, 1))):
            assert album.links(rated.evaluator()) == [
                rated.content(pid).media_url for pid in order
            ]

    def test_album_radius_parameter(self, platform):
        wide = geo_album("Mole Antonelliana", radius_km=10.0)
        links = wide.links(platform.evaluator())
        assert len(links) == 4  # the far-away picture joins


class TestMashup:
    def test_sections_present(self, platform):
        view = run_mashup(platform.evaluator(), pid=1, language="it")
        assert view["city"], "city abstract branch must match"
        assert view["restaurant"], "nearby restaurants branch"
        assert view["tourism"], "nearby attractions branch"
        assert view["ugc"], "other UGC at the same location"

    def test_city_branch_content(self, platform):
        view = run_mashup(platform.evaluator(), pid=1, language="it")
        city = view["city"][0]
        assert "Torino" in city.label or "Turin" in city.label
        assert city.description is not None

    def test_restaurant_websites(self, platform):
        view = run_mashup(platform.evaluator(), pid=1, language="it")
        assert any(
            s.description and "example.org" in s.description
            for s in view["restaurant"]
        )

    def test_ugc_branch_excludes_self(self, platform):
        view = run_mashup(platform.evaluator(), pid=1, language="it")
        assert all(
            str(s.resource) != str(TL_PID["1"]) for s in view["ugc"]
        )

    def test_per_branch_limit(self, platform):
        view = run_mashup(
            platform.evaluator(), pid=1, language="it",
        )
        for kind in ("city", "restaurant", "tourism", "ugc"):
            assert len(view[kind]) <= 5


class TestSearchInterface:
    @pytest.fixture(scope="class")
    def search(self, platform):
        return SearchInterface(
            platform.union_graph(), platform.contents()
        )

    def test_suggest_prefix(self, search):
        suggestions = search.suggest("turi")
        assert suggestions
        assert any("Turin" in s.label for s in suggestions)

    def test_suggest_geo_ranking(self, search):
        near_turin = search.suggest("mole", user_point=MOLE)
        assert any(
            "Mole Antonelliana" in s.label for s in near_turin[:3]
        )

    def test_content_for_resource_by_annotation(self, search, platform):
        from repro.rdf import DBPR

        items = search.content_for_resource(DBPR.Mole_Antonelliana)
        pids = {i.pid for i in items}
        assert 1 in pids

    def test_content_for_resource_by_geo(self, search):
        from repro.rdf import DBPR

        items = search.content_for_resource(
            DBPR.Mole_Antonelliana, radius_km=0.3
        )
        assert {i.pid for i in items} >= {1, 2, 4}

    def test_keyword_baseline(self, search):
        items = search.keyword_search("mole")
        # titles and tags both match; the far-away Torino shot does not
        assert {i.pid for i in items} == {1, 2, 4}

    def test_keyword_baseline_misses_synonym(self, search):
        # the motivating failure: Italian title, English query
        assert search.keyword_search("sunset") == []


class TestTagAlbums:
    def test_by_user_album(self, platform):
        # pictures taken while Walter Goix was nearby carry his people tag
        album = by_user("Walter Goix")
        selected = album.select(platform.contents())
        assert all(
            any("people:fn=Walter+Goix" == t for t in i.context_tags)
            for i in selected
        )

    def test_plain_tag_album(self, platform):
        from repro.platform import TagAlbum

        album = TagAlbum(plain_tag="mole")
        assert {i.pid for i in album.select(platform.contents())} == {1, 4}

    def test_empty_album_filter_rejected(self):
        from repro.platform import TagAlbum

        with pytest.raises(ValueError):
            TagAlbum()
