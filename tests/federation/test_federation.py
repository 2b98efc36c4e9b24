"""Federation tests: the §6 future-work architecture end to end."""

import pytest

from repro.federation import (
    Activity,
    ActivityError,
    Federation,
    Hub,
    KeyDirectory,
    PhotoFrame,
    PubSubError,
    SalmonError,
    Slap,
    Timeline,
    WebFingerError,
    merge_timelines,
    parse_account,
    sign_slap,
    verify_envelope,
)
from repro.rdf import FOAF, Literal, URIRef


@pytest.fixture
def federation():
    fed = Federation()
    rossi = fed.create_node("rossi.example.net", b"rossi-key")
    rossi.add_member("oscar", "Oscar Rossi")
    rossi.add_member("anna", "Anna Rossi")
    goix = fed.create_node("goix.example.org", b"goix-key")
    goix.add_member("walter", "Walter Goix")
    return fed, rossi, goix


class TestWebFinger:
    def test_parse_account(self):
        account = parse_account("acct:oscar@Rossi.example.NET")
        assert account.user == "oscar"
        assert account.domain == "rossi.example.net"
        assert account.acct == "acct:oscar@rossi.example.net"

    def test_parse_without_scheme(self):
        assert parse_account("walter@goix.example.org").user == "walter"

    def test_parse_invalid(self):
        with pytest.raises(WebFingerError):
            parse_account("not an account")

    def test_lookup(self, federation):
        fed, _, _ = federation
        descriptor = fed.directory.lookup("acct:oscar@rossi.example.net")
        assert descriptor.subject == "acct:oscar@rossi.example.net"
        assert "foaf" in descriptor.links["describedby"]
        assert descriptor.properties["name"] == "Oscar Rossi"

    def test_lookup_unknown_user(self, federation):
        fed, _, _ = federation
        with pytest.raises(WebFingerError):
            fed.directory.lookup("acct:nobody@rossi.example.net")

    def test_lookup_unknown_domain(self, federation):
        fed, _, _ = federation
        with pytest.raises(WebFingerError):
            fed.directory.lookup("acct:x@nowhere.example")

    def test_validate(self, federation):
        fed, _, _ = federation
        assert fed.directory.validate("acct:walter@goix.example.org")
        assert not fed.directory.validate("acct:zz@goix.example.org")

    def test_duplicate_domain_rejected(self, federation):
        fed, _, _ = federation
        with pytest.raises(WebFingerError):
            fed.create_node("rossi.example.net", b"k")


class TestActivityStreams:
    def test_verb_validation(self):
        with pytest.raises(ActivityError):
            Activity(actor="a", verb="explode", object_id="x")

    def test_json_roundtrip(self):
        activity = Activity(
            actor="acct:o@d", verb="post", object_id="http://x/1",
            published=100, summary="hello",
        )
        assert Activity.from_json(activity.to_json()) == activity

    def test_malformed_json(self):
        with pytest.raises(ActivityError):
            Activity.from_json({"verb": "post"})

    def test_timeline_newest_first(self):
        timeline = Timeline("o")
        timeline.push(Activity("a", "post", "1", published=10))
        timeline.push(Activity("a", "post", "2", published=30))
        timeline.push(Activity("a", "post", "3", published=20))
        assert [a.object_id for a in timeline.entries()] == ["2", "3", "1"]

    def test_merge_timelines(self):
        t1, t2 = Timeline("a"), Timeline("b")
        t1.push(Activity("a", "post", "1", published=10))
        t2.push(Activity("b", "post", "2", published=20))
        merged = merge_timelines([t1, t2])
        assert [a.object_id for a in merged] == ["2", "1"]

    def test_merge_limit(self):
        t = Timeline("a")
        for i in range(5):
            t.push(Activity("a", "post", str(i), published=i))
        assert len(merge_timelines([t], limit=2)) == 2


class TestPubSub:
    def test_subscribe_requires_verification(self):
        hub = Hub()
        received = []
        hub.subscribe("s1", "topic", lambda t, p: received.append(p))
        # not verified yet: publish reaches nobody
        assert hub.publish("topic", {"x": 1}) == 0

    def test_challenge_echo(self):
        hub = Hub()
        received = []
        challenge = hub.subscribe(
            "s1", "topic", lambda t, p: received.append(p)
        )
        hub.verify(challenge, challenge)
        assert hub.publish("topic", {"x": 1}) == 1
        assert received == [{"x": 1}]

    def test_bad_challenge(self):
        hub = Hub()
        challenge = hub.subscribe("s1", "t", lambda t, p: None)
        with pytest.raises(PubSubError):
            hub.verify(challenge, "wrong")

    def test_unknown_challenge(self):
        hub = Hub()
        with pytest.raises(PubSubError):
            hub.verify("nope", "nope")

    def test_unsubscribe(self):
        hub = Hub()
        hub.subscribe("s1", "t", lambda t, p: None,
                      verify=lambda c: c)
        assert hub.unsubscribe("s1", "t")
        assert not hub.unsubscribe("s1", "t")
        assert hub.publish("t", {}) == 0

    def test_delivery_log(self):
        hub = Hub()
        hub.subscribe("s1", "t", lambda t, p: None, verify=lambda c: c)
        hub.publish("t", {})
        assert hub.delivery_log == [("t", "s1")]

    def test_unsubscribe_during_delivery_skips_nobody(self):
        hub = Hub()
        received = []

        def leave(topic, payload):
            received.append("a")
            hub.unsubscribe("a", topic)

        hub.subscribe("a", "t", leave, verify=lambda c: c)
        hub.subscribe("b", "t", lambda t, p: received.append("b"),
                      verify=lambda c: c)
        assert hub.publish("t", {}) == 2
        assert received == ["a", "b"]
        # the unsubscribe holds from the next publish on
        assert hub.publish("t", {}) == 1
        assert received == ["a", "b", "b"]


class TestSalmon:
    def test_sign_and_verify(self):
        keys = KeyDirectory()
        keys.register("d.example", b"secret")
        slap = Slap("acct:u@d.example", "https://x/1", "nice!", 10)
        envelope = sign_slap(slap, "d.example", keys)
        assert verify_envelope(envelope, keys) == slap

    def test_tampered_content_rejected(self):
        from dataclasses import replace

        keys = KeyDirectory()
        keys.register("d.example", b"secret")
        slap = Slap("acct:u@d.example", "https://x/1", "nice!", 10)
        envelope = sign_slap(slap, "d.example", keys)
        tampered = replace(
            envelope, slap=replace(slap, content="evil")
        )
        with pytest.raises(SalmonError):
            verify_envelope(tampered, keys)

    def test_cross_domain_author_rejected(self):
        keys = KeyDirectory()
        keys.register("other.example", b"k2")
        slap = Slap("acct:u@d.example", "https://x/1", "hello", 10)
        envelope = sign_slap(slap, "other.example", keys)
        with pytest.raises(SalmonError):
            verify_envelope(envelope, keys)

    def test_unknown_domain(self):
        keys = KeyDirectory()
        slap = Slap("acct:u@d.example", "https://x/1", "hello", 10)
        with pytest.raises(SalmonError):
            sign_slap(slap, "d.example", keys)


class TestFederatedScenario:
    def test_publish_appears_on_own_timeline(self, federation):
        _, rossi, _ = federation
        rossi.publish("oscar", "Mole at night", "http://cdn/1.jpg", 100)
        entries = rossi.timeline("oscar").entries()
        assert len(entries) == 1
        assert entries[0].summary == "Mole at night"

    def test_follow_delivers_near_instant(self, federation):
        _, rossi, goix = federation
        rossi.follow("oscar", "acct:walter@goix.example.org")
        goix.publish("walter", "Holiday pic", "http://cdn/w1.jpg", 200)
        home = rossi.home_timeline()
        assert any(a.object_id.endswith("/content/1") for a in home)

    def test_follow_unknown_account_rejected(self, federation):
        _, rossi, _ = federation
        with pytest.raises(WebFingerError):
            rossi.follow("oscar", "acct:ghost@goix.example.org")

    def test_home_timeline_merges_local_and_remote(self, federation):
        _, rossi, goix = federation
        rossi.follow("anna", "acct:walter@goix.example.org")
        rossi.publish("oscar", "local", "http://cdn/l.jpg", 100)
        goix.publish("walter", "remote", "http://cdn/r.jpg", 300)
        home = rossi.home_timeline()
        assert [a.summary for a in home] == ["remote", "local"]

    def test_salmon_comment_swims_upstream(self, federation):
        _, rossi, goix = federation
        content = goix.publish(
            "walter", "Holiday pic", "http://cdn/w1.jpg", 200
        )
        rossi.comment("oscar", content.url, "bellissima!", 250)
        stored = goix.content(content.url).comments
        assert len(stored) == 1
        assert stored[0].author == "acct:oscar@rossi.example.net"

    def test_salmon_to_missing_content(self, federation):
        _, rossi, goix = federation
        with pytest.raises(SalmonError):
            rossi.comment(
                "oscar", "https://goix.example.org/content/99", "x", 1
            )

    def test_foaf_graph_includes_remote_knows(self, federation):
        _, rossi, _ = federation
        rossi.follow("oscar", "acct:walter@goix.example.org")
        g = rossi.foaf_graph()
        person = URIRef("https://rossi.example.net/people/oscar")
        assert (person, FOAF.name, Literal("Oscar Rossi")) in g
        assert (
            person, FOAF.knows,
            URIRef("acct:walter@goix.example.org"),
        ) in g

    def test_oembed(self, federation):
        _, rossi, _ = federation
        content = rossi.publish(
            "oscar", "Mole at night", "http://cdn/1.jpg", 100
        )
        doc = rossi.oembed(content.url)
        assert doc["type"] == "photo"
        assert doc["url"] == "http://cdn/1.jpg"
        assert doc["provider_name"] == "rossi.example.net"
        assert "<img" in doc["html"]

    def test_oembed_unknown(self, federation):
        from repro.federation import OEmbedError

        _, rossi, _ = federation
        with pytest.raises(OEmbedError):
            rossi.oembed("https://rossi.example.net/content/404")


class TestUpnpScenario:
    def test_photoframe_slideshow(self, federation):
        fed, rossi, _ = federation
        rossi.publish("oscar", "pic one", "http://cdn/1.jpg", 100)
        frame = PhotoFrame(fed.ssdp)
        assert frame.refresh("family") == 1
        assert frame.slideshow == ["http://cdn/1.jpg"]

    def test_photoframe_realtime_updates(self, federation):
        """The paper's scenario: a photoframe shows a live slideshow of
        a family member's holiday pictures."""
        fed, rossi, _ = federation
        frame = PhotoFrame(fed.ssdp)
        fed.hub.subscribe(
            "frame", rossi.topic("oscar"), frame.on_new_content,
            verify=lambda c: c,
        )
        rossi.publish("oscar", "holiday 1", "http://cdn/h1.jpg", 100)
        rossi.publish("oscar", "holiday 2", "http://cdn/h2.jpg", 110)
        assert frame.slideshow == ["http://cdn/h1.jpg",
                                   "http://cdn/h2.jpg"]

    def test_media_server_browse(self, federation):
        _, rossi, _ = federation
        rossi.publish("oscar", "pic", "http://cdn/1.jpg", 100)
        listing = rossi.media_server.browse("family")
        assert len(listing["items"]) == 1
        assert listing["items"][0].title == "pic"

    def test_unknown_container(self, federation):
        from repro.federation import UpnpError

        _, rossi, _ = federation
        with pytest.raises(UpnpError):
            rossi.media_server.browse("nope")
