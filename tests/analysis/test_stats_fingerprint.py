"""Regression: statistics freshness for MVCC store snapshots.

A :class:`repro.store.SnapshotGraph` has no ``_version`` counter (it is
immutable), so statistics once keyed on it were always stale — every
evaluator over an unchanged store re-collected them from scratch. The
statistics now live in the pinned state's views
(:func:`repro.store.engine.current_view`), and commits carry them
incrementally, so full rebuilds happen only on the first collection.
"""

from repro.analysis.stats import GraphStatistics
from repro.obs import get_registry, set_registry
from repro.obs.metrics import MetricsRegistry
from repro.rdf import RDF, URIRef
from repro.sparql import Evaluator
from repro.store import QuadStore

EX = "http://example.org/"
CITY = URIRef(EX + "City")


def _rebuilds():
    counter = get_registry().counter(
        "repro_graph_stats_rebuilds_total",
        "Full statistics collection passes over a graph.",
    )
    return counter.value


def _store(n=3):
    store = QuadStore()
    batch = store.batch()
    for i in range(n):
        batch.insert((URIRef(f"{EX}s{i}"), RDF.type, CITY))
    store.commit(batch)
    return store


class TestSnapshotFingerprint:
    def setup_method(self):
        self._previous = set_registry(MetricsRegistry())

    def teardown_method(self):
        set_registry(self._previous)

    def test_fingerprint_is_the_generation(self):
        """Statistics cached on a pinned view are every pin's of that
        generation, and only theirs."""
        store = _store()
        view = store.head()
        assert view.generation == 1
        stats = GraphStatistics.cached(view)
        assert GraphStatistics.current(view) is stats
        assert GraphStatistics.current(store.head()) is stats
        store.insert((URIRef(EX + "s9"), RDF.type, CITY))
        assert GraphStatistics.current(view) is stats
        assert GraphStatistics.current(store.head()) is not stats

    def test_same_generation_never_rebuilds(self):
        """The regression: N evaluators over one unchanged store must
        share a single collection pass."""
        store = _store()
        first = Evaluator(store)._statistics()
        baseline = _rebuilds()
        for _ in range(5):
            assert Evaluator(store)._statistics() is first
        assert _rebuilds() == baseline

    def test_commit_maintains_without_rebuilding(self):
        """A commit after the first collection updates the cached
        snapshot incrementally — rebuild count stays at 1."""
        store = _store()
        stats = store.statistics()
        assert stats.class_counts[CITY] == 3
        assert _rebuilds() == 1

        store.insert((URIRef(EX + "s9"), RDF.type, CITY))
        maintained = store.statistics()
        assert maintained.class_counts[CITY] == 4
        assert GraphStatistics.current(store.head()) is maintained
        assert _rebuilds() == 1  # the delta path, not a re-scan

        deltas = get_registry().counter(
            "repro_graph_stats_delta_updates_total",
            "Incremental statistics maintenance passes "
            "(O(delta) commits that avoided a full rebuild).",
        )
        assert deltas.value >= 1

    def test_distinct_generations_are_distinct_fingerprints(self):
        store = _store()
        before = GraphStatistics.cached(store.head())
        store.insert((URIRef(EX + "s9"), RDF.type, CITY))
        after = GraphStatistics.current(store.head())
        assert after is not None and after is not before
        assert before.class_counts[CITY] == 3
        assert after.class_counts[CITY] == 4

    def test_a_view_collected_on_a_left_state_is_carried_again(self):
        """A reader collects on a generation a commit has already left:
        the next commit collects the view once, and every commit after
        it carries the view, so readers stop collecting per
        generation."""
        store = _store()
        pinned = store.head()
        store.insert((URIRef(EX + "s8"), RDF.type, CITY))
        assert GraphStatistics.cached(pinned).class_counts[CITY] == 3
        assert GraphStatistics.current(store.head()) is None
        assert _rebuilds() == 1
        store.insert((URIRef(EX + "s9"), RDF.type, CITY))
        assert _rebuilds() == 2  # once, by the commit
        store.insert((URIRef(EX + "s10"), RDF.type, CITY))
        head = GraphStatistics.current(store.head())
        assert head.class_counts[CITY] == 6
        # the left state keeps the statistics collected on it
        assert GraphStatistics.current(pinned).class_counts[CITY] == 3
        assert _rebuilds() == 2  # carried from then on
