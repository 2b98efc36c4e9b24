"""Synthetic LinkedGeoData graph builder.

LinkedGeoData (OpenStreetMap as RDF) supplies the mashup query's
commercial layer: restaurants with websites, tourism attractions, and
city nodes typed ``lgdo:City``. Labels reuse the DBpedia language tags so
the mashup's label-join between ``lgdo:City`` nodes and ``dbpo:Place``
resources works exactly as in the paper's query (§4.1).
"""

from __future__ import annotations

from ..rdf.graph import Graph
from ..rdf.namespace import GEO, LGDO, LGDP, LGDR, RDF, RDFS
from ..rdf.terms import Literal, URIRef
from ..sparql.geo import Point
from .world import CITIES, POIS

LINKEDGEODATA_GRAPH_IRI = URIRef("http://linkedgeodata.org")

#: PoiInfo.category → LinkedGeoData ontology class.
_CATEGORY_TYPES = {
    "monument": LGDO.Monument,
    "museum": LGDO.Museum,
    "church": LGDO.PlaceOfWorship,
    "park": LGDO.Park,
    "fountain": LGDO.Fountain,
    "stadium": LGDO.Stadium,
    "station": LGDO.RailwayStation,
    "restaurant": LGDO.Restaurant,
    "hotel": LGDO.Hotel,
}

#: Categories additionally typed lgdo:Tourism (the mashup's third branch).
_TOURISM_CATEGORIES = frozenset(
    {"monument", "museum", "church", "park", "fountain", "stadium"}
)


def build_linkedgeodata() -> Graph:
    """Build the synthetic LinkedGeoData graph."""
    g = Graph(LINKEDGEODATA_GRAPH_IRI)

    for city in CITIES:
        node = LGDR[f"node_city_{city.key}"]
        g.add((node, RDF.type, LGDO.City))
        for lang, label in city.labels.items():
            g.add((node, RDFS.label, Literal(label, lang=lang)))
        point = Point(city.longitude, city.latitude)
        g.add((node, GEO.geometry, point.to_literal()))

    for poi in POIS:
        node = LGDR[f"node_{poi.key}"]
        category_type = _CATEGORY_TYPES.get(poi.category)
        if category_type is not None:
            g.add((node, RDF.type, category_type))
        if poi.category in _TOURISM_CATEGORIES:
            g.add((node, RDF.type, LGDO.Tourism))
        for lang, label in poi.labels.items():
            g.add((node, RDFS.label, Literal(label, lang=lang)))
        point = Point(poi.longitude, poi.latitude)
        g.add((node, GEO.geometry, point.to_literal()))
        if poi.website is not None:
            g.add((node, LGDP.website, URIRef(poi.website)))

    return g
