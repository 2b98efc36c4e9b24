"""Context platform and gazetteer tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.context import (
    CalendarEntry,
    ContextPlatform,
    Gazetteer,
)
from repro.context.provider import MAX_FIX_AGE
from repro.lod import poi_by_key
from repro.lod.geonames import geonames_uri
from repro.sparql import Point

MOLE = Point(7.6934, 45.0692)
ROME_CENTER = Point(12.4964, 41.9028)
NEAR_MOLE = Point(7.6930, 45.0690)
TURIN_SUBURB = Point(7.62, 45.03)


class TestGazetteer:
    def test_nearest_city(self):
        gazetteer = Gazetteer()
        city, distance = gazetteer.nearest_city(MOLE)
        assert city.key == "Turin"
        assert distance < 1.0

    def test_reverse_geocode_city_country(self):
        address = Gazetteer().reverse_geocode(ROME_CENTER)
        assert address.city == "Rome"
        assert address.country == "Italy"

    def test_reverse_geocode_street_from_poi(self):
        address = Gazetteer().reverse_geocode(MOLE)
        assert address.street is not None
        assert "Mole Antonelliana" in address.street

    def test_reverse_geocode_no_street_far_from_pois(self):
        address = Gazetteer().reverse_geocode(TURIN_SUBURB)
        assert address.street is None

    def test_geonames_reference(self):
        assert Gazetteer().geonames_reference(MOLE) == geonames_uri(3165524)

    def test_search_pois_sorted_by_distance(self):
        hits = Gazetteer().search_pois(MOLE, radius_km=2.0)
        distances = [d for _, d in hits]
        assert distances == sorted(distances)
        assert hits[0][0].key == "Mole_Antonelliana"

    def test_search_pois_category_filter(self):
        hits = Gazetteer().search_pois(
            MOLE, radius_km=2.0, category="restaurant"
        )
        assert hits
        assert all(p.category == "restaurant" for p, _ in hits)

    def test_recs_id_roundtrip(self):
        gazetteer = Gazetteer()
        mole = poi_by_key("Mole_Antonelliana")
        recs_id = gazetteer.recs_id_for(mole)
        assert gazetteer.poi_by_recs_id(recs_id) == mole

    def test_recs_id_out_of_range(self):
        assert Gazetteer().poi_by_recs_id(0) is None
        assert Gazetteer().poi_by_recs_id(10_000) is None


@pytest.fixture
def platform():
    platform = ContextPlatform()
    platform.register_user("oscar", "Oscar Rodriguez")
    platform.register_user("walter", "Walter Goix")
    platform.register_user("carmen", "Carmen Criminisi")
    platform.add_friendship("oscar", "walter")
    return platform


class TestContextPlatform:
    def test_register_duplicate_rejected(self, platform):
        with pytest.raises(ValueError):
            platform.register_user("oscar")

    def test_unknown_user(self, platform):
        with pytest.raises(KeyError):
            platform.contextualize("nobody", 0)

    def test_position_at_latest_before(self, platform):
        platform.report_position("oscar", 100, MOLE)
        platform.report_position("oscar", 200, ROME_CENTER)
        assert platform.position_at("oscar", 150) == MOLE
        assert platform.position_at("oscar", 250) == ROME_CENTER

    def test_position_too_old(self, platform):
        platform.report_position("oscar", 100, MOLE)
        assert platform.position_at("oscar", 100 + 7200) is None

    def test_no_position(self, platform):
        assert platform.position_at("oscar", 100) is None

    def test_contextualize_location(self, platform):
        platform.report_position("oscar", 100, MOLE)
        context = platform.contextualize("oscar", 120)
        assert context.location is not None
        assert context.location.address.city == "Turin"
        assert context.location.geonames_resource == geonames_uri(3165524)
        assert context.location.cell is not None

    @pytest.mark.parametrize(
        "point", [MOLE, ROME_CENTER, NEAR_MOLE, TURIN_SUBURB]
    )
    def test_contextualize_searches_the_nearest_city_once(
        self, platform, monkeypatch, point
    ):
        gazetteer = platform.gazetteer
        expected = (
            gazetteer.reverse_geocode(point),
            gazetteer.geonames_reference(point),
        )
        searched = []
        nearest_city = Gazetteer.nearest_city

        def counting(self, at):
            searched.append(at)
            return nearest_city(self, at)

        monkeypatch.setattr(Gazetteer, "nearest_city", counting)
        platform.report_position("oscar", 100, point)
        location = platform.contextualize("oscar", 120).location
        assert searched == [point]
        assert (location.address, location.geonames_resource) == expected

    def test_nearby_buddies_only_friends(self, platform):
        platform.report_position("oscar", 100, MOLE)
        platform.report_position("walter", 100, NEAR_MOLE)
        platform.report_position("carmen", 100, NEAR_MOLE)  # not a friend
        context = platform.contextualize("oscar", 110)
        assert [b.username for b in context.buddies] == ["walter"]
        assert context.buddies[0].full_name == "Walter Goix"

    def test_faraway_friend_not_nearby(self, platform):
        platform.report_position("oscar", 100, MOLE)
        platform.report_position("walter", 100, ROME_CENTER)
        context = platform.contextualize("oscar", 110)
        assert context.buddies == []

    def test_calendar_window(self, platform):
        platform.report_position("oscar", 100, MOLE)
        platform.add_calendar_entry(
            "oscar", CalendarEntry("Cinema festival", 50, 150)
        )
        platform.add_calendar_entry(
            "oscar", CalendarEntry("Dinner", 500, 600)
        )
        context = platform.contextualize("oscar", 110)
        assert [e.title for e in context.calendar] == ["Cinema festival"]

    def test_place_label(self, platform):
        platform.report_position("oscar", 100, MOLE)
        platform.label_place("oscar", MOLE, "my favourite spot", "crowded")
        context = platform.contextualize("oscar", 110)
        assert context.location.place_label == "my favourite spot"
        assert context.location.place_type == "crowded"

    def test_serving_cell_deterministic(self, platform):
        assert platform.serving_cell(MOLE) == platform.serving_cell(MOLE)
        assert platform.serving_cell(MOLE) != platform.serving_cell(
            ROME_CENTER
        )


class TestContextTags:
    def test_tags_cover_namespaces(self, platform):
        platform.report_position("oscar", 100, MOLE)
        platform.report_position("walter", 100, NEAR_MOLE)
        platform.label_place("oscar", MOLE, "centro", "crowded")
        platform.add_calendar_entry(
            "oscar", CalendarEntry("Festival", 50, 150)
        )
        context = platform.contextualize("oscar", 110)
        tags = platform.context_tags(context)
        namespaces = {t.namespace for t in tags}
        assert namespaces == {
            "geo", "address", "cell", "place", "people", "event",
        }

    def test_people_tag_format_matches_paper(self, platform):
        platform.report_position("oscar", 100, MOLE)
        platform.report_position("walter", 100, NEAR_MOLE)
        context = platform.contextualize("oscar", 110)
        tags = platform.context_tags(context)
        people = [t for t in tags if t.namespace == "people"]
        assert people[0].format() == "people:fn=Walter+Goix"

    def test_no_location_no_tags(self, platform):
        context = platform.contextualize("oscar", 100)
        assert platform.context_tags(context) == []


def _linear_position_at(fixes, timestamp, max_age):
    """The lookup as it was before the list was bisected: scan the
    fixes in time order (stable: equal timestamps in report order) and
    keep the first one with the greatest timestamp <= ``timestamp``."""
    best = None
    for fix_time, point in sorted(fixes, key=lambda fix: fix[0]):
        if fix_time <= timestamp and (best is None or fix_time > best[0]):
            best = (fix_time, point)
    if best is None or timestamp - best[0] > max_age:
        return None
    return best[1]


class TestPositionLookupMatchesLinearScan:
    @settings(max_examples=200, deadline=None)
    @given(
        # few distinct timestamps, so ties are common; each fix gets
        # its own point, so which fix won is visible in the answer
        fixes=st.lists(st.integers(0, 12), max_size=14),
        queries=st.lists(st.integers(-2, 16), min_size=1, max_size=8),
    )
    def test_bisected_list_answers_like_the_scan(self, fixes, queries):
        platform = ContextPlatform()
        platform.register_user("oscar")
        reported = []
        for serial, fix_time in enumerate(fixes):
            fix = (fix_time * 1000, Point(7.0 + serial / 100.0, 45.0))
            platform.report_position("oscar", *fix)
            reported.append(fix)
            for when in queries:
                assert platform.position_at(
                    "oscar", when * 1000
                ) == _linear_position_at(reported, when * 1000, MAX_FIX_AGE)

    def test_first_reported_fix_wins_a_tie(self):
        platform = ContextPlatform()
        platform.register_user("oscar")
        platform.report_position("oscar", 100, MOLE)
        platform.report_position("oscar", 100, ROME_CENTER)
        platform.report_position("oscar", 50, TURIN_SUBURB)
        assert platform.position_at("oscar", 100) == MOLE
        assert platform.position_at("oscar", 99) == TURIN_SUBURB
