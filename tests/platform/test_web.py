"""Web interface tests (paper §3) + region annotations (§1.1)."""

import pytest

from repro.platform import (
    Capture,
    OpenIdError,
    OpenIdProvider,
    Platform,
    RelyingParty,
    WebInterface,
    is_mobile_user_agent,
)
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.rdf import URIRef
from repro.sparql import Point

NEAR_MOLE = Point(7.6930, 45.0690)

DESKTOP_UA = (
    "Mozilla/5.0 (Windows NT 6.1) AppleWebKit/535.7 Chrome/16 Safari/535"
)
MOBILE_UA = (
    "Mozilla/5.0 (iPhone; CPU iPhone OS 5_0 like Mac OS X) "
    "AppleWebKit/534.46 Mobile Safari"
)


@pytest.fixture
def web():
    platform = Platform()
    provider = OpenIdProvider("https://openid.example.org")
    provider.register_identity("https://openid.example.org/walter")
    provider.register_identity("https://openid.example.org/stranger")
    rp = RelyingParty()
    rp.add_provider(provider)
    platform.register_user(
        "walter", "Walter Goix",
        openid="https://openid.example.org/walter",
    )
    platform.register_user("oscar", "Oscar Rodriguez")
    for i in range(25):
        platform.upload(Capture(
            username="walter" if i % 2 == 0 else "oscar",
            title=f"picture {i}",
            tags=("mole",),
            timestamp=1000 + i,
            point=NEAR_MOLE,
        ))
        platform.rate(i + 1, (i % 5) + 1.0)
    return WebInterface(platform, rp)


def login(web, user_agent=DESKTOP_UA):
    return web.login_with_openid(
        "https://openid.example.org/walter", user_agent
    )


class TestRouting:
    def test_ua_detection(self):
        assert is_mobile_user_agent(MOBILE_UA)
        assert not is_mobile_user_agent(DESKTOP_UA)

    def test_desktop_stays(self, web):
        decision = web.route(DESKTOP_UA)
        assert decision.interface == "web"
        assert not decision.redirected

    def test_mobile_redirected(self, web):
        decision = web.route(MOBILE_UA)
        assert decision.interface == "mobile"
        assert decision.redirected

    def test_switch_back_override(self, web):
        session = login(web, MOBILE_UA)
        assert session.interface == "mobile"
        web.switch_interface(session, "web")
        decision = web.route(MOBILE_UA, session)
        assert decision.interface == "web"
        assert not decision.redirected

    def test_invalid_interface(self, web):
        session = login(web)
        with pytest.raises(ValueError):
            web.switch_interface(session, "tv")


class TestSessions:
    def test_login_maps_openid_to_user(self, web):
        session = login(web)
        assert session.username == "walter"
        assert web.session(session.session_id) is session

    def test_login_unknown_account(self, web):
        with pytest.raises(OpenIdError):
            web.login_with_openid(
                "https://openid.example.org/stranger"
            )

    def test_logout(self, web):
        session = login(web)
        web.logout(session)
        with pytest.raises(KeyError):
            web.session(session.session_id)


class TestProfile:
    def test_update_profile(self, web):
        session = login(web)
        web.update_profile(session, email="w@example.org")
        assert web.profile("walter")["email"] == "w@example.org"

    def test_profile_unknown_user(self, web):
        with pytest.raises(KeyError):
            web.profile("ghost")

    def test_add_friend(self, web):
        session = login(web)
        web.add_friend(session, "oscar")
        assert web.friends_of("walter") == ["oscar"]
        assert web.friends_of("oscar") == ["walter"]

    def test_sql_quote_in_profile(self, web):
        session = login(web)
        web.update_profile(session, full_name="Walter O'Goix")
        assert web.profile("walter")["full_name"] == "Walter O'Goix"

    @pytest.mark.parametrize("username", [
        pytest.param("x' OR user_a = 'walter", id="injection"),
        pytest.param("o'brien", id="apostrophe"),
    ])
    def test_friends_of_takes_the_name_literally(self, web, username):
        web.add_friend(login(web), "oscar")
        assert web.friends_of(username) == []

    def test_update_profile_of_a_quoted_username(self, web):
        web.platform.register_user("o'brien")
        web.platform.update_user("o'brien", email="ob@example.org")
        assert web.profile("o'brien")["email"] == "ob@example.org"
        # nobody else's row was touched
        assert web.profile("walter")["email"] is None

    def test_update_profile_reaches_the_rdf_view(self, web):
        from repro.platform import TLV
        from repro.rdf import Literal, TL_USER

        web.platform.union_graph()  # clean build before the change
        web.update_profile(login(web), full_name="Walter G.")
        assert web.platform.union_graph().value(
            TL_USER.walter, TLV.fullName
        ) == Literal("Walter G.")

    def test_update_unknown_user(self, web):
        with pytest.raises(KeyError):
            web.platform.update_user("ghost", email="g@example.org")


class TestBrowsing:
    def test_pagination(self, web):
        page1 = web.browse(page=1, page_size=10)
        page3 = web.browse(page=3, page_size=10)
        assert page1.total == 25
        assert page1.pages == 3
        assert len(page1.items) == 10
        assert len(page3.items) == 5
        assert page1.has_next
        assert not page3.has_next

    def test_newest_first(self, web):
        page = web.browse(page=1, page_size=5)
        stamps = [i.timestamp for i in page.items]
        assert stamps == sorted(stamps, reverse=True)

    def test_top_rated(self, web):
        page = web.browse(order="top-rated", page_size=5)
        assert all(i.rating == 5.0 for i in page.items)

    def test_owner_filter(self, web):
        page = web.browse(owner="oscar", page_size=50)
        assert all(i.owner == "oscar" for i in page.items)
        assert page.total == 12

    def test_invalid_arguments(self, web):
        with pytest.raises(ValueError):
            web.browse(page=0)
        with pytest.raises(ValueError):
            web.browse(order="random")

    def test_empty_page(self, web):
        page = web.browse(page=99, page_size=10)
        assert page.items == []


def requests_of(registry):
    """``{(route, status): count}`` and ``{route: observations}`` of the
    web request metrics ``registry`` holds."""
    counts, seconds = {}, {}
    family = registry.get("repro_web_requests_total")
    for labels, child in family.children() if family else ():
        counts[labels["route"], labels["status"]] = child.value
    family = registry.get("repro_web_request_seconds")
    for labels, child in family.children() if family else ():
        seconds[labels["route"]] = child.count
    return counts, seconds


class TestRequestMetrics:
    def test_each_registry_counts_the_requests_made_while_current(
        self, web
    ):
        first, second = MetricsRegistry(), MetricsRegistry()
        previous = set_registry(first)
        try:
            web.browse(page=1, page_size=10)
            with pytest.raises(ValueError):
                web.browse(page=0)
            set_registry(second)
            web.browse(page=2, page_size=10)
            web.friends_of("walter")
            set_registry(first)
            web.browse(page=3, page_size=10)
            assert get_registry() is first
        finally:
            set_registry(previous)
        assert requests_of(first) == (
            {("browse", "ok"): 2, ("browse", "error"): 1},
            {"browse": 3},
        )
        assert requests_of(second) == (
            {("browse", "ok"): 1, ("friends", "ok"): 1},
            {"browse": 1, "friends": 1},
        )
        # a cleared registry counts again from the next request
        first.clear()
        previous = set_registry(first)
        try:
            web.browse(page=1, page_size=10)
        finally:
            set_registry(previous)
        assert requests_of(first) == ({("browse", "ok"): 1}, {"browse": 1})
        # the same families, help texts and label names as before
        for registry in (first, second):
            snapshot = registry.snapshot()
            assert set(snapshot) == {
                "repro_web_requests_total", "repro_web_request_seconds",
            }
            assert registry.get("repro_web_requests_total").help == (
                "Web interface requests by route and status."
            )
            assert registry.get("repro_web_request_seconds").help == (
                "Web interface request latency by route."
            )


class TestEditing:
    def test_edit_title_and_tags(self, web):
        session = login(web)
        item = web.edit_content(
            session, 1, title="new title", tags=["piazza"]
        )
        assert item.title == "new title"
        row = web.platform.db.table("pictures").get(1)
        assert row["title"] == "new title"
        assert "piazza" in row["keywords"].split()
        # context tags preserved
        assert any(
            k.startswith("address:city=")
            for k in row["keywords"].split()
        )

    def test_edit_requires_ownership(self, web):
        session = login(web)  # walter
        with pytest.raises(PermissionError):
            web.edit_content(session, 2, title="hijack")  # oscar's

    def test_delete_content(self, web):
        session = login(web)
        web.delete_content(session, 1)
        with pytest.raises(KeyError):
            web.platform.content(1)
        assert web.platform.db.table("pictures").get(1) is None

    def test_edit_reflects_in_rdf_after_resemanticize(self, web):
        from repro.rdf import DC, Literal, TL_PID

        session = login(web)
        web.edit_content(session, 1, title="La Gran Madre")
        graph = web.platform.union_graph()  # rebuilds (dirty)
        assert graph.value(
            TL_PID["1"], DC.title
        ) == Literal("La Gran Madre")


class TestRegionAnnotations:
    def test_annotate_and_list(self, web):
        session = login(web)
        rid = web.annotate_region(
            session, 1, 0.1, 0.2, 0.3, 0.4, note="the dome"
        )
        regions = web.platform.regions(1)
        assert len(regions) == 1
        assert regions[0]["rid"] == rid
        assert regions[0]["note"] == "the dome"

    def test_bounds_validation(self, web):
        session = login(web)
        with pytest.raises(ValueError):
            web.annotate_region(session, 1, 0.9, 0.9, 0.5, 0.5)
        with pytest.raises(ValueError):
            web.annotate_region(session, 1, -0.1, 0.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            web.annotate_region(session, 1, 0.0, 0.0, 0.0, 0.5)

    def test_ownership_required(self, web):
        session = login(web)
        with pytest.raises(PermissionError):
            web.annotate_region(session, 2, 0.1, 0.1, 0.2, 0.2)

    def test_regions_lifted_to_rdf(self, web):
        from repro.platform import TLV
        from repro.rdf import RDF, TL_PID, URIRef

        session = login(web)
        rid = web.annotate_region(
            session, 1, 0.1, 0.2, 0.3, 0.4, note="the dome"
        )
        graph = web.platform.union_graph()
        region = URIRef(f"http://beta.teamlife.it/regions/{rid}")
        assert (region, RDF.type, TLV.Region) in graph
        assert (region, TLV.on, TL_PID["1"]) in graph

    def test_delete_cascades_regions(self, web):
        session = login(web)
        web.annotate_region(session, 1, 0.1, 0.2, 0.3, 0.4)
        web.delete_content(session, 1)
        assert len(web.platform.db.table("regions")) == 0
