"""The tables the annotation path reads instead of rescanning constants.

``GeonamesResolver`` answers a word from a name table built once per
corpus, and the ``Gazetteer`` measures distances to ``Point``\\ s built
once per place. Both must answer exactly what the per-call scans they
replace answered; those scans are kept here as the reference. The
tables are never written after ``__init__``, so a resolver set shared
by annotation worker threads gives the same annotations as one thread.
"""

import dataclasses
import itertools

import pytest

from repro.context.gazetteer import WALKING_DISTANCE_KM, Gazetteer
from repro.core import BatchAnnotator
from repro.core.annotator import SemanticAnnotator
from repro.core.filtering import SemanticFilter
from repro.lod import build_lod_corpus
from repro.lod.geonames import geonames_uri
from repro.lod.world import CITIES, POIS
from repro.platform import Platform
from repro.rdf import GN, Graph, Literal, RDF
from repro.resolvers import (
    Candidate,
    GeonamesResolver,
    SemanticBroker,
    default_resolvers,
)
from repro.sparql.geo import Point, haversine_km
from repro.workloads import (
    WorkloadConfig,
    generate_workload,
    populate_platform,
)


# ---------------------------------------------------------------------------
# Geonames: the name table against the scan it replaces
# ---------------------------------------------------------------------------


def reference_resolve(resolver, word, language=None):
    """Every populated place rescanned for ``word``: the resolver's
    lookup before it had a name table."""
    graph = resolver.graph
    lowered = word.lower()
    candidates = []
    for feature in set(graph.subjects(GN.featureClass, GN.P)):
        names = [
            obj.lexical
            for _, _, obj in graph.triples((feature, GN.name, None))
            if isinstance(obj, Literal)
        ]
        names += [
            obj.lexical
            for _, _, obj in graph.triples((feature, GN.alternateName, None))
            if isinstance(obj, Literal)
        ]
        matching = [n for n in names if n.lower() == lowered]
        if not matching:
            continue
        population = graph.value(feature, GN.population)
        popularity = 0.0
        if isinstance(population, Literal) and population.is_numeric:
            popularity = int(population.value) / resolver._max_population
        canonical = graph.value(feature, GN.name)
        label = (
            canonical.lexical if isinstance(canonical, Literal)
            else matching[0]
        )
        candidates.append(Candidate(
            resource=feature,
            label=label,
            score=round(min(1.0, 0.85 + 0.15 * popularity), 4),
            resolver=resolver.name,
            word=word,
            entity_type="place",
            language=language,
        ))
    candidates.sort(key=lambda c: (-c.score, str(c.resource)))
    return candidates[: resolver.max_candidates]


def all_names(graph):
    return sorted({
        obj.lexical
        for predicate in (GN.name, GN.alternateName)
        for _, _, obj in graph.triples((None, predicate, None))
        if isinstance(obj, Literal)
    })


def casings(word):
    return {word, word.lower(), word.upper()}


@pytest.fixture(scope="module")
def corpus():
    return build_lod_corpus()


def test_every_name_in_three_casings_answers_as_the_scan(corpus):
    resolver = GeonamesResolver(corpus.geonames)
    names = all_names(corpus.geonames)
    assert len(names) > len(CITIES)  # alternate names included
    for name in names:
        for word in casings(name):
            assert resolver.resolve_term(word, "it") == reference_resolve(
                resolver, word, "it"
            ), word


def test_prefixes_and_unknown_words_answer_as_the_scan(corpus):
    resolver = GeonamesResolver(corpus.geonames)
    words = ["", "Tur", "Turi", "Turin ", "Colosseum", "Nowhere"]
    words += [name[:3] for name in all_names(corpus.geonames)]
    for word in words:
        assert resolver.resolve_term(word) == reference_resolve(
            resolver, word
        ), word


def test_a_name_and_score_tie_is_broken_by_the_resource():
    graph = build_lod_corpus(cached=False).geonames
    turin = geonames_uri(3165524)
    population = graph.value(turin, GN.population)
    # six more places called Turin, as populous as Turin: one sorts
    # before it and five after, so the five candidates kept cut two
    twins = [geonames_uri(1)] + [geonames_uri(n) for n in range(4, 9)]
    for twin in twins:
        graph.add((twin, GN.featureClass, GN.P))
        graph.add((twin, GN.name, Literal("Turin")))
        graph.add((twin, GN.population, population))
    # not a populated place: never a candidate
    region = geonames_uri(2)
    graph.add((region, GN.featureClass, GN.A))
    graph.add((region, GN.name, Literal("Turin")))
    graph.add((region, GN.population, population))
    resolver = GeonamesResolver(graph)
    for word in casings("Turin"):
        found = resolver.resolve_term(word)
        assert found == reference_resolve(resolver, word)
        assert region not in {c.resource for c in found}
    ranked = [c.resource for c in resolver.resolve_term("turin")]
    assert ranked == [twins[0], turin, *twins[1:4]]


def test_a_place_without_a_literal_name_is_labelled_by_the_spelling_matched():
    graph = Graph()
    place = geonames_uri(42)
    graph.add((place, RDF.type, GN.Feature))
    graph.add((place, GN.featureClass, GN.P))
    graph.add((place, GN.alternateName, Literal("Augusta", lang="la")))
    graph.add((place, GN.alternateName, Literal("AUGUSTA", lang="de")))
    resolver = GeonamesResolver(graph)
    for word in casings("Augusta"):
        assert resolver.resolve_term(word) == reference_resolve(
            resolver, word
        )
    # which spelling comes first is the graph's iteration order
    assert resolver.resolve_term("augusta")[0].label in {
        "Augusta", "AUGUSTA"
    }


# ---------------------------------------------------------------------------
# Gazetteer: Points built once against Points built per call
# ---------------------------------------------------------------------------


def brute_nearest_city(gazetteer, point):
    best = min(
        gazetteer.cities,
        key=lambda city: haversine_km(
            point, Point(city.longitude, city.latitude)
        ),
    )
    return best, haversine_km(point, Point(best.longitude, best.latitude))


def brute_nearest_poi(gazetteer, point):
    best, best_distance = None, WALKING_DISTANCE_KM
    for poi in gazetteer.pois:
        distance = haversine_km(point, Point(poi.longitude, poi.latitude))
        if distance <= best_distance:
            best, best_distance = poi, distance
    return best


def brute_search_pois(gazetteer, point, radius_km=2.0, category=None):
    hits = []
    for poi in gazetteer.pois:
        if category is not None and poi.category != category:
            continue
        distance = haversine_km(point, Point(poi.longitude, poi.latitude))
        if distance <= radius_km:
            hits.append((poi, distance))
    hits.sort(key=lambda item: item[1])
    return hits


def probe_points():
    places = [Point(c.longitude, c.latitude) for c in CITIES]
    places += [Point(p.longitude, p.latitude) for p in POIS]
    turin = CITIES[0]
    assert turin.key == "Turin"
    steps = [-0.03, -0.012, -0.004, 0.0, 0.004, 0.012, 0.03]
    around = [
        Point(turin.longitude + dx, turin.latitude + dy)
        for dx, dy in itertools.product(steps, steps)
    ]
    return places + around


def assert_answers_as_brute_force(gazetteer):
    categories = sorted({poi.category for poi in gazetteer.pois})
    for point in probe_points():
        assert gazetteer.nearest_city(point) == brute_nearest_city(
            gazetteer, point
        )
        assert gazetteer.nearest_poi(point) == brute_nearest_poi(
            gazetteer, point
        )
        for category in [None] + categories:
            for radius in (0.5, 2.0):
                assert gazetteer.search_pois(
                    point, radius, category
                ) == brute_search_pois(gazetteer, point, radius, category)


def test_the_gazetteer_answers_as_the_per_call_scan():
    gazetteer = Gazetteer()
    assert_answers_as_brute_force(gazetteer)


def test_equidistant_places_keep_their_tie_rules():
    # a twin at the same coordinates is exactly as far from any point
    city, poi = CITIES[0], POIS[0]
    city_twin = dataclasses.replace(city, key="Turin_twin")
    poi_twin = dataclasses.replace(poi, key="Mole_twin")
    gazetteer = Gazetteer(
        cities=[city, city_twin] + CITIES[1:],
        pois=[poi, poi_twin] + POIS[1:],
    )
    at = Point(poi.longitude, poi.latitude)
    assert gazetteer.nearest_city(at)[0] is city  # the first minimum
    assert gazetteer.nearest_poi(at) is poi_twin  # the last one
    [(first, _), (second, _)] = gazetteer.search_pois(at, 0.001)
    assert (first, second) == (poi, poi_twin)  # stable by distance
    assert_answers_as_brute_force(gazetteer)


def test_a_gazetteer_without_cities_still_refuses_nearest_city():
    with pytest.raises(ValueError):
        Gazetteer(cities=[]).nearest_city(Point(7.0, 45.0))


# ---------------------------------------------------------------------------
# one resolver set shared by annotation worker threads
# ---------------------------------------------------------------------------


def test_four_workers_sharing_one_resolver_set_annotate_as_one(corpus):
    resolvers = default_resolvers(corpus)
    annotator = SemanticAnnotator(
        SemanticBroker(resolvers), SemanticFilter(corpus)
    )
    workload = generate_workload(WorkloadConfig(
        n_users=5, n_contents=40,
        cities=("Turin", "Rome", "Paris", "Berlin"), seed=3,
    ))
    runs = {}
    for workers in (1, 4):
        platform = Platform()
        platform.annotator = annotator
        populate_platform(platform, workload)
        graph = Graph()
        stats = BatchAnnotator(
            platform, graph, batch_size=8, workers=workers
        ).run()
        runs[workers] = (stats.summary(), stats.failures, set(graph))
    assert runs[4] == runs[1]
    assert runs[1][0]["annotated"] > 0
