"""Location analysis tests (paper §2.2.1)."""

import pytest

from repro.context import ContextPlatform, TripleTag
from repro.core import LocationAnalyzer
from repro.core.location import COMMERCIAL_CATEGORIES
from repro.lod import build_lod_corpus, poi_by_key
from repro.lod.geonames import geonames_uri
from repro.obs import MetricsRegistry, set_registry
from repro.rdf import DBPR, FOAF, OWL, RDF, TL_USER
from repro.sparql import Point

MOLE = Point(7.6934, 45.0692)
NEAR_MOLE = Point(7.6930, 45.0690)


@pytest.fixture(scope="module")
def corpus():
    return build_lod_corpus()


@pytest.fixture
def setup(corpus):
    context = ContextPlatform()
    context.register_user("oscar", "Oscar Rodriguez")
    context.register_user(
        "walter", "Walter Goix",
        external_accounts=("http://twitter.com/wgoix",),
    )
    context.add_friendship("oscar", "walter")
    analyzer = LocationAnalyzer(corpus, context.gazetteer)
    return context, analyzer


class TestSenderContextualization:
    def test_geonames_reference_attached(self, setup):
        context_platform, analyzer = setup
        context_platform.report_position("oscar", 100, MOLE)
        context = context_platform.contextualize("oscar", 110)
        analysis = analyzer.analyze(context)
        assert analysis.geonames_resource == geonames_uri(3165524)

    def test_geonames_reference_is_valid_in_graph(self, setup, corpus):
        # "which validity is guaranteed by the locationing process"
        context_platform, analyzer = setup
        context_platform.report_position("oscar", 100, MOLE)
        context = context_platform.contextualize("oscar", 110)
        analysis = analyzer.analyze(context)
        assert corpus.geonames.resource_exists(
            analysis.geonames_resource
        )

    def test_no_location_no_reference(self, setup):
        context_platform, analyzer = setup
        context = context_platform.contextualize("oscar", 100)
        analysis = analyzer.analyze(context)
        assert analysis.geonames_resource is None


class TestBuddyResources:
    def test_local_descriptive_resource(self, setup):
        context_platform, analyzer = setup
        context_platform.report_position("oscar", 100, MOLE)
        context_platform.report_position("walter", 100, NEAR_MOLE)
        context = context_platform.contextualize("oscar", 110)
        analysis = analyzer.analyze(context)
        assert analysis.buddy_resources == [TL_USER.walter]
        triples = set(analysis.triples)
        assert (TL_USER.walter, RDF.type, FOAF.Person) in triples
        assert any(
            p == FOAF.account for _, p, _ in triples
        )  # declared external accounts linked

    def test_external_linking_off_by_default(self, setup):
        _, analyzer = setup
        assert analyzer.link_buddies_externally is False
        from repro.context.models import Buddy

        _, triples = analyzer.buddy_resource(
            Buddy("walter", "Walter Goix")
        )
        assert not any(p == OWL.sameAs for _, p, _ in triples)

    def test_external_linking_opt_in(self, corpus):
        analyzer = LocationAnalyzer(
            corpus, link_buddies_externally=True
        )
        from repro.context.models import Buddy

        # a buddy whose name collides with a LOD entity gets sameAs links
        _, triples = analyzer.buddy_resource(
            Buddy("leo", "Leonardo da Vinci")
        )
        assert any(p == OWL.sameAs for _, p, _ in triples)


class TestPoiResolution:
    def test_monument_resolved(self, setup):
        _, analyzer = setup
        gazetteer = analyzer.gazetteer
        mole = poi_by_key("Mole_Antonelliana")
        recs_id = gazetteer.recs_id_for(mole)
        tag = TripleTag("poi", "recs_id", str(recs_id))
        assert analyzer.resolve_poi_tag(tag) == DBPR.Mole_Antonelliana

    def test_commercial_poi_excluded(self, setup):
        _, analyzer = setup
        restaurant = poi_by_key("Ristorante_Del_Cambio")
        assert restaurant.category in COMMERCIAL_CATEGORIES
        assert analyzer.resolve_poi(restaurant) is None

    def test_unknown_recs_id(self, setup):
        _, analyzer = setup
        assert analyzer.resolve_poi_tag(
            TripleTag("poi", "recs_id", "99999")
        ) is None

    def test_malformed_recs_id(self, setup):
        _, analyzer = setup
        assert analyzer.resolve_poi_tag(
            TripleTag("poi", "recs_id", "abc")
        ) is None

    def test_poi_tag_through_analyze(self, setup):
        context_platform, analyzer = setup
        context_platform.report_position("oscar", 100, MOLE)
        context = context_platform.contextualize("oscar", 110)
        mole = poi_by_key("Mole_Antonelliana")
        tag = TripleTag(
            "poi", "recs_id",
            str(analyzer.gazetteer.recs_id_for(mole)),
        )
        analysis = analyzer.analyze(context, (tag,))
        assert analysis.poi_resource == DBPR.Mole_Antonelliana

    def test_poi_query_probes_the_geo_grid(self, setup):
        # the centre is a constant geometry, so the geometry scan is
        # answered from the spatial grid rather than read in full
        _, analyzer = setup
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            resolved = analyzer.resolve_poi(poi_by_key("Mole_Antonelliana"))
        finally:
            set_registry(previous)
        assert resolved == DBPR.Mole_Antonelliana
        probes = registry.get("repro_geo_probe_total")
        paths = {
            labels["path"]: child.value
            for labels, child in (probes.children() if probes else ())
        }
        assert paths.get("grid", 0) > 0
        assert "scan" not in paths

    def test_station_category_resolved(self, setup):
        _, analyzer = setup
        station = poi_by_key("Porta_Nuova_railway_station")
        assert analyzer.resolve_poi(station) == \
            DBPR.Porta_Nuova_railway_station
