"""Regression: GraphStatistics staleness detection for graphs without
a ``_version`` counter.

The old fingerprint fell back to ``len(graph)``, so a same-size
mutation (remove one triple, add another) served stale planner
statistics. A graph without a change signal now has its statistics
never served from the cache.
"""

from repro.analysis.stats import GraphStatistics
from repro.rdf import Graph, RDF, URIRef
from repro.sparql import Evaluator

EX = "http://example.org/"


def _graph():
    graph = Graph()
    graph.add((URIRef(EX + "a"), RDF.type, URIRef(EX + "City")))
    graph.add((URIRef(EX + "b"), RDF.type, URIRef(EX + "City")))
    return graph


class VersionlessGraph:
    """A graph-like proxy without the ``_version`` mutation counter."""

    def __init__(self, graph):
        self._graph = graph

    def predicate_statistics(self):
        return self._graph.predicate_statistics()

    def triples(self, pattern):
        return self._graph.triples(pattern)

    def __len__(self):
        return len(self._graph)


class TestFingerprint:
    def test_versioned_graph_uses_version(self):
        graph = _graph()
        stats = GraphStatistics.cached(graph)
        assert GraphStatistics.current(graph) is stats
        # a mutation moves the version: the old statistics are stale
        graph.add((URIRef(EX + "c"), RDF.type, URIRef(EX + "City")))
        assert GraphStatistics.current(graph) is None

    def test_versionless_fingerprint_is_always_stale(self):
        proxy = VersionlessGraph(_graph())
        first = GraphStatistics.cached(proxy)
        # never served from the cache, not even before any change
        assert GraphStatistics.current(proxy) is None
        assert GraphStatistics.cached(proxy) is not first

    def test_same_size_mutation_not_served_stale(self):
        """The bug scenario: remove one triple, add another — size
        unchanged — then ask for statistics again."""
        graph = _graph()
        proxy = VersionlessGraph(graph)
        evaluator = Evaluator(proxy)
        before = evaluator._statistics()
        assert before.class_counts[URIRef(EX + "City")] == 2

        graph.remove((URIRef(EX + "b"), RDF.type, URIRef(EX + "City")))
        graph.add((URIRef(EX + "b"), RDF.type, URIRef(EX + "Town")))
        assert len(proxy) == 2  # same size — the old fallback's trap

        after = evaluator._statistics()
        assert after is not before
        assert after.class_counts[URIRef(EX + "City")] == 1
        assert after.class_counts[URIRef(EX + "Town")] == 1

    def test_versioned_graph_cache_still_shared(self):
        """The fix must not break the cheap path: an unchanged
        versioned graph keeps serving the cached snapshot."""
        graph = _graph()
        evaluator = Evaluator(graph)
        first = evaluator._statistics()
        assert Evaluator(graph)._statistics() is first
        graph.add((URIRef(EX + "c"), RDF.type, URIRef(EX + "City")))
        assert Evaluator(graph)._statistics() is not first
