"""Synthetic Geonames graph builder.

City-level features only — exactly what the paper's contextualization
uses ("the (nearest) city-level resource is returned", §2.2.1). Each
feature links to its DBpedia counterpart with ``owl:sameAs`` so the
graph-priority filter can recognize that a Geonames candidate and a
DBpedia candidate denote the same place.
"""

from __future__ import annotations

from typing import Optional

from ..rdf.graph import Graph
from ..rdf.namespace import DBPR, GEO, GN, GNR, OWL, RDF, RDFS
from ..rdf.terms import Literal, URIRef
from ..sparql.geo import Point
from .world import CITIES

GEONAMES_GRAPH_IRI = URIRef("http://sws.geonames.org")


def geonames_uri(geonames_id: int) -> URIRef:
    """The canonical Geonames resource URI (trailing slash included)."""
    return GNR[f"{geonames_id}/"]


def build_geonames() -> Graph:
    """Build the synthetic Geonames graph."""
    g = Graph(GEONAMES_GRAPH_IRI)
    for city in CITIES:
        resource = geonames_uri(city.geonames_id)
        g.add((resource, RDF.type, GN.Feature))
        g.add((resource, GN.name, Literal(city.labels["en"])))
        g.add((resource, RDFS.label, Literal(city.labels["en"])))
        for lang, label in city.labels.items():
            g.add(
                (resource, GN.alternateName, Literal(label, lang=lang))
            )
        g.add((resource, GN.featureClass, GN.P))
        g.add((resource, GN.featureCode, GN["P.PPL"]))
        g.add((resource, GN.population, Literal(city.population)))
        g.add((resource, GN.countryCode,
               Literal(_COUNTRY_CODES.get(city.country, "XX"))))
        point = Point(city.longitude, city.latitude)
        g.add((resource, GEO.geometry, point.to_literal()))
        g.add((resource, GEO.lat, Literal(city.latitude)))
        g.add((resource, GEO.long, Literal(city.longitude)))
        g.add((resource, OWL.sameAs, DBPR[city.key]))
    return g


_COUNTRY_CODES = {
    "Italy": "IT",
    "France": "FR",
    "Spain": "ES",
    "Germany": "DE",
}


def nearest_city_feature(graph: Graph, point: Point) -> Optional[URIRef]:
    """The Geonames feature nearest to ``point`` (None on empty graph).

    This is the locationing primitive the context platform uses to attach
    a guaranteed-valid Geonames reference to every content's location.
    """
    from ..sparql.geo import haversine_km, try_parse_point

    best: Optional[URIRef] = None
    best_distance = float("inf")
    for subject, _, obj in graph.triples((None, GEO.geometry, None)):
        feature_point = try_parse_point(obj)
        if feature_point is None:
            continue
        distance = haversine_km(point, feature_point)
        if distance < best_distance:
            best = subject
            best_distance = distance
    return best
