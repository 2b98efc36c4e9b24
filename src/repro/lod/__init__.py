"""Synthetic Linked Open Data: DBpedia, Geonames, LinkedGeoData.

Deterministic stand-ins for the dataset dumps the paper imports into its
triple store, including redirects, disambiguation pages and multilingual
labels so the annotation pipeline's edge cases are exercised.
"""

from .datasets import LodCorpus, build_lod_corpus
from .dbpedia import (
    DBPEDIA_GRAPH_IRI,
    build_dbpedia,
    follow_redirect,
    is_disambiguation_page,
)
from .geonames import (
    GEONAMES_GRAPH_IRI,
    build_geonames,
    geonames_uri,
    nearest_city_feature,
)
from .linkedgeodata import LINKEDGEODATA_GRAPH_IRI, build_linkedgeodata
from .ontology import ONTOLOGY_GRAPH_IRI, build_ontology
from .world import (
    CITIES,
    DISAMBIGUATIONS,
    PEOPLE,
    POIS,
    REDIRECTS,
    CityInfo,
    DisambiguationInfo,
    PersonInfo,
    PoiInfo,
    RedirectInfo,
    poi_by_key,
)

__all__ = [
    "CITIES",
    "CityInfo",
    "DBPEDIA_GRAPH_IRI",
    "DISAMBIGUATIONS",
    "DisambiguationInfo",
    "GEONAMES_GRAPH_IRI",
    "LINKEDGEODATA_GRAPH_IRI",
    "LodCorpus",
    "ONTOLOGY_GRAPH_IRI",
    "PEOPLE",
    "POIS",
    "PersonInfo",
    "PoiInfo",
    "REDIRECTS",
    "RedirectInfo",
    "build_dbpedia",
    "build_geonames",
    "build_linkedgeodata",
    "build_lod_corpus",
    "build_ontology",
    "follow_redirect",
    "geonames_uri",
    "is_disambiguation_page",
    "nearest_city_feature",
    "poi_by_key",
]
