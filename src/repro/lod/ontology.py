"""Ontology (schema) triples for the synthetic LOD world.

The class hierarchies and property signatures that RDFS inference
(:mod:`repro.rdf.inference`) chains over — mirroring the fragments of
the DBpedia ontology, the LinkedGeoData ontology and FOAF that the
paper's queries touch.
"""

from __future__ import annotations

from ..rdf.graph import Graph
from ..rdf.namespace import DBPO, FOAF, GN, LGDO, RDFS, SIOC, SIOCT
from ..rdf.terms import URIRef

ONTOLOGY_GRAPH_IRI = URIRef("urn:graph:ontology")


def build_ontology() -> Graph:
    """The schema graph used for inference-backed queries."""
    g = Graph(ONTOLOGY_GRAPH_IRI)

    # DBpedia ontology fragment
    g.add((DBPO.City, RDFS.subClassOf, DBPO.PopulatedPlace))
    g.add((DBPO.PopulatedPlace, RDFS.subClassOf, DBPO.Place))
    for concrete in (
        DBPO.Monument, DBPO.Museum, DBPO.Church, DBPO.Park,
        DBPO.Station, DBPO.Stadium, DBPO.Restaurant, DBPO.Hotel,
    ):
        g.add((concrete, RDFS.subClassOf, DBPO.Place))
    g.add((DBPO.birthPlace, RDFS.domain, DBPO.Person))
    g.add((DBPO.birthPlace, RDFS.range, DBPO.Place))
    g.add((DBPO.location, RDFS.range, DBPO.Place))
    g.add((DBPO.country, RDFS.range, DBPO.Place))

    # LinkedGeoData ontology fragment
    for tourism in (
        LGDO.Monument, LGDO.Museum, LGDO.PlaceOfWorship, LGDO.Park,
        LGDO.Fountain, LGDO.Stadium,
    ):
        g.add((tourism, RDFS.subClassOf, LGDO.Tourism))
    g.add((LGDO.Tourism, RDFS.subClassOf, LGDO.Amenity))
    g.add((LGDO.Restaurant, RDFS.subClassOf, LGDO.Amenity))
    g.add((LGDO.Hotel, RDFS.subClassOf, LGDO.Amenity))
    g.add((LGDO.City, RDFS.subClassOf, LGDO.Place))
    g.add((LGDO.Amenity, RDFS.subClassOf, LGDO.Place))

    # FOAF / SIOC fragments
    g.add((FOAF.knows, RDFS.domain, FOAF.Person))
    g.add((FOAF.knows, RDFS.range, FOAF.Person))
    g.add((FOAF.Person, RDFS.subClassOf, FOAF.Agent))
    g.add((SIOCT.MicroblogPost, RDFS.subClassOf, SIOC.Post))

    # Geonames
    g.add((GN.Feature, RDFS.subClassOf, LGDO.Place))

    return g
