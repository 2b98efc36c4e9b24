"""sparqlPuSH tests: proactive notification of RDF store updates."""

import pytest

from repro.platform.sparql_push import SparqlPushError, SparqlPushService
from repro.rdf import FOAF, Graph, Literal, RDF, SIOCT, URIRef

EX = "http://example.org/"


def ex(name):
    return URIRef(EX + name)


@pytest.fixture
def service():
    graph = Graph()
    graph.add((ex("pic1"), RDF.type, SIOCT.MicroblogPost))
    graph.add((ex("pic1"), FOAF.maker, ex("walter")))
    return SparqlPushService(graph), graph


QUERY = "SELECT ?p WHERE { ?p a sioct:MicroblogPost }"


class TestRegistration:
    def test_register_select(self, service):
        push, _ = service
        sub_id = push.register(QUERY)
        assert push.topic(sub_id) == f"sparqlpush:{sub_id}"

    def test_register_ask_rejected(self, service):
        push, _ = service
        with pytest.raises(SparqlPushError):
            push.register("ASK { ?s ?p ?o }")

    def test_unregister(self, service):
        push, _ = service
        sub_id = push.register(QUERY)
        push.unregister(sub_id)
        with pytest.raises(SparqlPushError):
            push.topic(sub_id)

    def test_unregister_unknown(self, service):
        push, _ = service
        with pytest.raises(SparqlPushError):
            push.unregister("zzz")


class TestNotification:
    def test_new_match_notifies(self, service):
        push, graph = service
        sub_id = push.register(QUERY)
        received = []
        push.listen(sub_id, "mobile-1",
                    lambda topic, payload: received.append(payload))

        graph.add((ex("pic2"), RDF.type, SIOCT.MicroblogPost))
        deliveries = push.notify_update()

        assert deliveries == {sub_id: 1}
        assert len(received) == 1
        added = received[0]["added"]
        assert added == [{"p": EX + "pic2"}]

    def test_no_change_no_notification(self, service):
        push, graph = service
        sub_id = push.register(QUERY)
        received = []
        push.listen(sub_id, "mobile-1",
                    lambda topic, payload: received.append(payload))

        graph.add((ex("walter"), FOAF.name, Literal("walter")))
        assert push.notify_update() == {}
        assert received == []

    def test_removal_reported_as_count(self, service):
        push, graph = service
        sub_id = push.register(QUERY)
        received = []
        push.listen(sub_id, "mobile-1",
                    lambda topic, payload: received.append(payload))

        graph.remove((ex("pic1"), RDF.type, SIOCT.MicroblogPost))
        push.notify_update()
        assert received[0]["removed_count"] == 1
        assert received[0]["added"] == []

    def test_state_advances_between_updates(self, service):
        push, graph = service
        sub_id = push.register(QUERY)
        received = []
        push.listen(sub_id, "m",
                    lambda topic, payload: received.append(payload))

        graph.add((ex("pic2"), RDF.type, SIOCT.MicroblogPost))
        push.notify_update()
        graph.add((ex("pic3"), RDF.type, SIOCT.MicroblogPost))
        push.notify_update()
        assert [p["added"][0]["p"] for p in received] == [
            EX + "pic2", EX + "pic3",
        ]

    def test_multiple_subscribers(self, service):
        push, graph = service
        sub_id = push.register(QUERY)
        hits = []
        push.listen(sub_id, "a", lambda t, p: hits.append("a"))
        push.listen(sub_id, "b", lambda t, p: hits.append("b"))
        graph.add((ex("pic9"), RDF.type, SIOCT.MicroblogPost))
        deliveries = push.notify_update()
        assert deliveries[sub_id] == 2
        assert sorted(hits) == ["a", "b"]

    def test_multiple_queries_independent(self, service):
        push, graph = service
        posts = push.register(QUERY)
        makers = push.register(
            "SELECT ?u WHERE { ?p foaf:maker ?u }"
        )
        received = {}
        push.listen(posts, "pa",
                    lambda t, p, k=posts: received.setdefault(k, p))
        push.listen(makers, "ma",
                    lambda t, p, k=makers: received.setdefault(k, p))

        graph.add((ex("pic2"), RDF.type, SIOCT.MicroblogPost))
        deliveries = push.notify_update()
        assert posts in deliveries
        assert makers not in deliveries

    def test_unregister_from_callback(self, service):
        push, graph = service
        posts = push.register(QUERY)
        makers = push.register("SELECT ?p WHERE { ?p foaf:maker ?u }")
        received = []

        def leave(topic, payload):
            received.append(topic)
            push.unregister(posts)
            push.unregister(makers)  # before its turn in this round

        push.listen(posts, "pa", leave)
        push.listen(makers, "ma", lambda t, p: received.append(t))
        graph.add((ex("pic2"), RDF.type, SIOCT.MicroblogPost))
        graph.add((ex("pic2"), FOAF.maker, ex("walter")))

        assert push.notify_update() == {posts: 1}
        assert received == [f"sparqlpush:{posts}"]
        graph.add((ex("pic3"), RDF.type, SIOCT.MicroblogPost))
        assert push.notify_update() == {}


class TestPlatformIntegration:
    def test_new_upload_notifies_virtual_album_watchers(self):
        """The sparqlPuSH use case: a mobile client watches the 'near
        the Mole' virtual album and is told when new content appears."""
        from repro.core.albums import geo_album
        from repro.platform import Capture, Platform
        from repro.sparql import Point

        platform = Platform()
        platform.register_user("walter", "Walter Goix")
        platform.upload(Capture(
            username="walter", title="Mole uno", tags=(),
            timestamp=1000, point=Point(7.6930, 45.0690),
        ))
        # provider form: notify_update re-pulls the current union, so a
        # re-semanticized upload is visible without hand-feeding triples
        push = SparqlPushService(platform.union_graph)
        album = geo_album("Mole Antonelliana", radius_km=0.3)
        sub_id = push.register(album.query)
        received = []
        push.listen(sub_id, "mobile",
                    lambda t, p: received.append(p))

        platform.upload(Capture(
            username="walter", title="Mole due", tags=(),
            timestamp=2000, point=Point(7.6931, 45.0691),
        ))
        push.notify_update()

        assert len(received) == 1
        assert len(received[0]["added"]) == 1

    def test_union_snapshot_is_read_only(self):
        """The union handed to watchers is a frozen view: feeding
        triples into it (the old workaround for stale snapshots) now
        raises instead of silently diverging from the store."""
        from repro.platform import Capture, Platform
        from repro.rdf.graph import FrozenGraphError
        from repro.sparql import Point

        platform = Platform()
        platform.register_user("walter", "Walter Goix")
        platform.upload(Capture(
            username="walter", title="Mole uno", tags=(),
            timestamp=1000, point=Point(7.6930, 45.0690),
        ))
        union = platform.union_graph()
        with pytest.raises(FrozenGraphError):
            union.add((ex("x"), RDF.type, SIOCT.MicroblogPost))
        # a thawed copy is writable and leaves the union untouched
        thawed = union.copy()
        thawed.add((ex("x"), RDF.type, SIOCT.MicroblogPost))
        assert len(thawed) == len(union) + 1
