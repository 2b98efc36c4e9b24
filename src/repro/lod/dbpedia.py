"""Synthetic DBpedia graph builder.

Reproduces the structures the annotation pipeline depends on:
multilingual ``rdfs:label``/``dbpo:abstract``, ontology types,
``geo:geometry`` points, ``dbpo:wikiPageRedirects`` (the paper's query
"follows resource redirections to avoid returning disambiguation pages")
and ``dbpo:wikiPageDisambiguates`` pages (the validation step checks for
that property and discards such candidates).
"""

from __future__ import annotations

from ..rdf.graph import Graph
from ..rdf.namespace import DBPO, DBPR, FOAF, GEO, RDF, RDFS
from ..rdf.terms import Literal, URIRef
from ..sparql.geo import Point
from .world import (
    CITIES,
    DISAMBIGUATIONS,
    MINOR_RESOURCES,
    PEOPLE,
    POIS,
    REDIRECTS,
)

#: PoiInfo.category → DBpedia ontology class (besides dbpo:Place).
_CATEGORY_TYPES = {
    "monument": DBPO.Monument,
    "museum": DBPO.Museum,
    "church": DBPO.Church,
    "park": DBPO.Park,
    "station": DBPO.Station,
    "stadium": DBPO.Stadium,
    "fountain": DBPO.Monument,
    "restaurant": DBPO.Restaurant,
    "hotel": DBPO.Hotel,
}

DBPEDIA_GRAPH_IRI = URIRef("http://dbpedia.org")


def build_dbpedia() -> Graph:
    """Build the synthetic DBpedia graph."""
    g = Graph(DBPEDIA_GRAPH_IRI)

    for city in CITIES:
        resource = DBPR[city.key]
        g.add((resource, RDF.type, DBPO.Place))
        g.add((resource, RDF.type, DBPO.PopulatedPlace))
        g.add((resource, RDF.type, DBPO.City))
        for lang, label in city.labels.items():
            g.add((resource, RDFS.label, Literal(label, lang=lang)))
        for lang, abstract in city.abstracts.items():
            g.add((resource, DBPO.abstract, Literal(abstract, lang=lang)))
        point = Point(city.longitude, city.latitude)
        g.add((resource, GEO.geometry, point.to_literal()))
        g.add((resource, GEO.lat, Literal(city.latitude)))
        g.add((resource, GEO.long, Literal(city.longitude)))
        g.add((resource, DBPO.country, DBPR[city.country]))
        g.add((resource, DBPO.populationTotal, Literal(city.population)))

    for poi in POIS:
        if not poi.in_dbpedia:
            continue
        resource = DBPR[poi.key]
        g.add((resource, RDF.type, DBPO.Place))
        category_type = _CATEGORY_TYPES.get(poi.category)
        if category_type is not None:
            g.add((resource, RDF.type, category_type))
        for lang, label in poi.labels.items():
            g.add((resource, RDFS.label, Literal(label, lang=lang)))
        for lang, abstract in poi.abstracts.items():
            g.add((resource, DBPO.abstract, Literal(abstract, lang=lang)))
        point = Point(poi.longitude, poi.latitude)
        g.add((resource, GEO.geometry, point.to_literal()))
        g.add((resource, GEO.lat, Literal(poi.latitude)))
        g.add((resource, GEO.long, Literal(poi.longitude)))
        g.add((resource, DBPO.location, DBPR[poi.city]))

    for person in PEOPLE:
        resource = DBPR[person.key]
        g.add((resource, RDF.type, DBPO.Person))
        g.add((resource, RDF.type, FOAF.Person))
        for lang, label in person.labels.items():
            g.add((resource, RDFS.label, Literal(label, lang=lang)))
        for lang, abstract in person.abstracts.items():
            g.add((resource, DBPO.abstract, Literal(abstract, lang=lang)))
        if person.birth_city is not None:
            g.add((resource, DBPO.birthPlace, DBPR[person.birth_city]))

    for redirect in REDIRECTS:
        g.add(
            (DBPR[redirect.source], DBPO.wikiPageRedirects,
             DBPR[redirect.target])
        )
        # redirect pages keep a label so lookups can hit them
        target_label = redirect.source.replace("_", " ")
        g.add((DBPR[redirect.source], RDFS.label,
               Literal(target_label, lang="en")))

    for key, labels in MINOR_RESOURCES.items():
        resource = DBPR[key]
        g.add((resource, RDF.type, DBPO.Place))
        for lang, label in labels.items():
            g.add((resource, RDFS.label, Literal(label, lang=lang)))

    for page in DISAMBIGUATIONS:
        resource = DBPR[page.key]
        g.add((resource, RDF.type, DBPO.Disambiguation))
        g.add((resource, RDFS.label, Literal(page.label, lang="en")))
        for option in page.options:
            g.add((resource, DBPO.wikiPageDisambiguates, DBPR[option]))

    return g


def is_disambiguation_page(graph: Graph, resource: URIRef) -> bool:
    """True when ``resource`` carries the ``disambiguates`` property —
    the validation check of §2.2.2."""
    return any(
        True
        for _ in graph.triples((resource, DBPO.wikiPageDisambiguates, None))
    )


def follow_redirect(graph: Graph, resource: URIRef) -> URIRef:
    """Follow ``dbpo:wikiPageRedirects`` chains (cycle-safe)."""
    seen = {resource}
    current = resource
    while True:
        target = graph.value(current, DBPO.wikiPageRedirects)
        if target is None or target in seen:
            return current
        seen.add(target)
        current = target
