"""Assembling the LOD corpus into a queryable dataset.

Mirrors the paper's Virtuoso deployment: the platform's own triples plus
the imported DBpedia / Geonames / LinkedGeoData dumps, each in its own
named graph, queried together through the union view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..rdf.graph import Dataset, Graph
from ..rdf.terms import URIRef
from .dbpedia import DBPEDIA_GRAPH_IRI, build_dbpedia
from .geonames import GEONAMES_GRAPH_IRI, build_geonames
from .linkedgeodata import LINKEDGEODATA_GRAPH_IRI, build_linkedgeodata


@dataclass
class LodCorpus:
    """The three imported datasets, individually addressable."""

    dbpedia: Graph
    geonames: Graph
    linkedgeodata: Graph

    def named_graphs(self) -> Dict[URIRef, Graph]:
        """The three graphs by their named-graph IRI, in dataset order
        (the graphs themselves, not copies)."""
        return {
            DBPEDIA_GRAPH_IRI: self.dbpedia,
            GEONAMES_GRAPH_IRI: self.geonames,
            LINKEDGEODATA_GRAPH_IRI: self.linkedgeodata,
        }

    def as_dataset(self, platform_graph: Optional[Graph] = None) -> Dataset:
        """A named-graph dataset, optionally including platform triples."""
        ds = Dataset()
        for iri, graph in self.named_graphs().items():
            ds.graph(iri).add_all(graph)
        if platform_graph is not None:
            ds.default.add_all(platform_graph)
        return ds

    def union(self, platform_graph: Optional[Graph] = None) -> Graph:
        """A merged graph of the corpus (plus platform triples if given)."""
        merged = Graph()
        merged.add_all(self.dbpedia)
        merged.add_all(self.geonames)
        merged.add_all(self.linkedgeodata)
        if platform_graph is not None:
            merged.add_all(platform_graph)
        return merged


_cached_corpus: Optional[LodCorpus] = None


def build_lod_corpus(cached: bool = True) -> LodCorpus:
    """Build (or reuse) the deterministic synthetic LOD corpus.

    The corpus is immutable by convention; pass ``cached=False`` to get
    private graph instances you intend to mutate.
    """
    global _cached_corpus
    if cached and _cached_corpus is not None:
        return _cached_corpus
    corpus = LodCorpus(
        dbpedia=build_dbpedia(),
        geonames=build_geonames(),
        linkedgeodata=build_linkedgeodata(),
    )
    if cached:
        _cached_corpus = corpus
    return corpus
