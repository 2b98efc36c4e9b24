"""Cross-layer integration: evaluator pinning, EXPLAIN, batch commits,
sparqlPuSH and the platform's store attachment."""

import pytest

from repro.core.batch import BatchAnnotator
from repro.platform.sparql_push import SparqlPushService
from repro.rdf.terms import Literal, URIRef
from repro.sparql.evaluator import Evaluator
from repro.store import QuadStore

EX = "http://example.org/"
P = URIRef(EX + "p")


def _triple(i, o="x"):
    return (URIRef(f"{EX}s{i}"), P, Literal(o))


class TestEvaluatorPinning:
    def test_evaluator_pins_one_generation(self):
        """Acceptance: reads through pinned snapshots — a query started
        before a commit never observes it, even mid-batch."""
        store = QuadStore()
        store.insert(_triple(1))
        evaluator = Evaluator(store)
        assert evaluator.generation == 1

        query = "SELECT ?s WHERE { ?s ?p ?o }"
        assert len(list(evaluator.evaluate(query))) == 1

        # an in-flight writer commits between two evaluations
        store.insert(_triple(2))
        assert len(list(evaluator.evaluate(query))) == 1
        # a *new* evaluator pins the new generation
        fresh = Evaluator(store)
        assert fresh.generation == 2
        assert len(list(fresh.evaluate(query))) == 2

    def test_graph_patterns_address_named_contexts(self):
        store = QuadStore()
        g1 = URIRef(EX + "g1")
        store.insert(_triple(1))
        store.insert(_triple(2, o="named"), context=g1)
        evaluator = Evaluator(store)
        rows = list(evaluator.evaluate(
            "SELECT ?g ?s WHERE { GRAPH ?g { ?s ?p ?o } }"
        ))
        assert len(rows) == 1
        (row,) = rows
        assert str(list(row.values())[0]) in (str(g1), EX + "s2")

    def test_union_default_graph(self):
        store = QuadStore()
        store.insert(_triple(1))
        store.insert(_triple(2), context=URIRef(EX + "g1"))
        evaluator = Evaluator(store)
        rows = list(evaluator.evaluate("SELECT ?s WHERE { ?s ?p ?o }"))
        assert len(rows) == 2  # plain BGPs see the union

    def test_explain_surfaces_pinned_generation(self):
        store = QuadStore()
        store.insert(_triple(1))
        store.insert(_triple(2))
        explanation = Evaluator(store).explain(
            "SELECT ?s WHERE { ?s ?p ?o }"
        )
        assert explanation.generation == 2
        assert "pinned store generation: 2" in explanation.render()

    def test_plain_graph_explain_has_no_generation_line(self):
        from repro.rdf.graph import Graph

        graph = Graph()
        graph.add(_triple(1))
        explanation = Evaluator(graph).explain(
            "SELECT ?s WHERE { ?s ?p ?o }"
        )
        assert explanation.generation is None
        assert "pinned store generation" not in explanation.render()


class TestBatchAnnotatorCommits:
    def test_watermark_commits_one_generation_per_batch(self):
        """One checkpoint batch → one generation-stamped commit."""
        from types import SimpleNamespace

        class FakePlatform:
            def __init__(self, count):
                self._items = {
                    pid: SimpleNamespace(
                        pid=pid, title=str(pid), plain_tags=[],
                        resource=URIRef(f"urn:content:{pid}"),
                    )
                    for pid in range(1, count + 1)
                }
                self.annotator = SimpleNamespace(
                    annotate=lambda title, tags: SimpleNamespace(
                        annotations=[SimpleNamespace(
                            resource=URIRef(f"urn:concept:{title}")
                        )],
                        broker_result=None,
                    ),
                    broker=None,
                )

            def contents(self):
                return list(self._items.values())

            def content(self, pid):
                return self._items[pid]

        store = QuadStore()
        generations, counted = [], []

        def on_progress(checkpoint):
            generations.append(store.generation)
            counted.append(checkpoint.stats.triples_added)

        annotator = BatchAnnotator(
            FakePlatform(10), store, batch_size=4,
            on_progress=on_progress,
        )
        stats = annotator.run()
        assert stats.processed == 10
        # 10 items / batch_size 4 → 3 commits (4 + 4 + 2), each made
        # — and its effective ops counted — *before* its progress
        # callback looked
        assert generations == [1, 2, 3]
        assert counted == [4, 8, 10]
        assert store.generation == 3
        assert stats.triples_added == store.size == 10


class TestSparqlPush:
    def test_store_source_pins_per_round(self):
        store = QuadStore()
        store.insert(_triple(1))
        service = SparqlPushService(store)
        sub_id = service.register(
            f"SELECT ?s WHERE {{ ?s <{EX}p> ?o }}"
        )
        received = []
        service.listen(sub_id, "client", lambda t, p: received.append(p))

        store.insert(_triple(2))
        deliveries = service.notify_update()
        assert deliveries[sub_id] == 1
        assert len(received) == 1
        assert len(received[0]["added"]) == 1

        # no store change → no delivery
        assert service.notify_update() == {}


class TestPlatformAttachment:
    @pytest.fixture(scope="class")
    def platform(self):
        from repro.platform import Platform
        from repro.platform.models import Capture, MediaType

        platform = Platform()
        platform.register_user("alice")
        platform.upload(Capture(
            username="alice",
            title="Tramonto sulla Mole Antonelliana",
            tags=("mole",), timestamp=1000,
            media_type=MediaType.PHOTO,
        ))
        return platform

    def test_attach_syncs_and_evaluator_pins(self, platform, tmp_path):
        store = QuadStore(tmp_path)
        platform.attach_store(store)
        assert store.generation == 1
        assert store.size > 0

        evaluator = platform.evaluator()
        assert evaluator.generation == store.generation
        rows = list(evaluator.evaluate(
            "SELECT ?s WHERE { ?s ?p ?o } LIMIT 3"
        ))
        assert rows

        # unchanged platform → no-op sync, generation stable
        assert platform.synchronize_store() == 1

        # the store survives a restart with identical content
        dump = store.to_nquads()
        store.close()
        with QuadStore(tmp_path) as reopened:
            assert reopened.to_nquads() == dump
