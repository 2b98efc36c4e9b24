"""The incremental write path: one mutation -> one delta commit.

The contract is an equivalence: after any sequence of platform
mutations, however they were batched into flushes, the store's default
context equals a from-scratch :meth:`Platform.semanticize` of the same
platform, and the whole store equals one a fresh platform attaches
after replaying the same mutations without ever flushing.
"""

import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.platform import Capture, Platform
from repro.platform.vocab import TLV
from repro.rdf import FOAF, TL_USER
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, URIRef
from repro.sparql import Point
from repro.store import QuadStore

MOLE = Point(7.6934, 45.0692)
NEAR_MOLE = Point(7.6930, 45.0690)
ROME = Point(12.4964, 41.9028)

USERS = ("oscar", "walter", "carmen")
TITLES = (
    "Tramonto sulla Mole Antonelliana",
    "Museo Egizio di Torino",
    "Colosseo a Roma",
    "periferia",
)
TAGS = ("mole", "torino", "roma", "night")
#: capture times: a few minutes apart, so fixes fall inside each other's
#: position window, plus one far later
TIMES = tuple(10_000 + 600 * k for k in range(8)) + (90_000,)
FOREIGN = URIRef("http://example.org/not-the-platforms")


def _platform() -> Platform:
    platform = Platform()
    for name in USERS:
        platform.register_user(name, name.title())
    return platform


def _busy_platform() -> Platform:
    """Two friends with an item each, minutes apart at the same spot:
    most drawn mutations then land next to shared triples (a buddy's
    description) and inside another item's position window."""
    platform = _platform()
    platform.add_friendship("oscar", "walter")
    for user, when, point in (("oscar", TIMES[3], MOLE),
                              ("walter", TIMES[4], NEAR_MOLE)):
        platform.upload(Capture(
            username=user, title=TITLES[0], tags=("mole",),
            timestamp=when, point=point,
        ))
    return platform


# ---------------------------------------------------------------------------
# A mutation is a tuple (kind, *args); indexes are taken modulo what
# exists when it is applied, so every drawn sequence is applicable.
# ---------------------------------------------------------------------------

_index = st.integers(0, 50)
_user = st.integers(0, len(USERS) + 1)  # may name a user registered later

_upload = st.tuples(
    st.just("upload"), _user, st.sampled_from(TITLES),
    st.lists(st.sampled_from(TAGS), max_size=2, unique=True),
    st.sampled_from(TIMES),  # often *earlier* than existing items
    st.sampled_from([None, MOLE, NEAR_MOLE, NEAR_MOLE, ROME]),
    st.sampled_from([None, None, 1, 2]),
)

_mutations = st.one_of(
    _upload,
    _upload,
    _upload,
    st.tuples(
        st.just("edit"), _index,
        st.one_of(st.none(), st.sampled_from(TITLES)),
        st.one_of(st.none(), st.lists(st.sampled_from(TAGS), max_size=2,
                                      unique=True)),
    ),
    st.tuples(st.just("rate"), _index, st.sampled_from([0.0, 2.5, 5.0])),
    st.tuples(st.just("delete"), _index),
    st.tuples(st.just("delete"), _index),
    st.tuples(st.just("region"), _index, st.sampled_from(["a", "b"])),
    st.tuples(st.just("update_user"), _user,
              st.sampled_from(["Renamed", "Other Name"])),
    st.tuples(st.just("register_user")),
    st.tuples(st.just("add_friendship"), _user, _user),
    # reported to the context platform directly, not through an upload
    # or Platform.add_friendship: the items they re-locate must follow
    st.tuples(st.just("context_fix"), _user, st.sampled_from(TIMES),
              st.sampled_from([MOLE, NEAR_MOLE, ROME])),
    st.tuples(st.just("context_friendship"), _user, _user),
)


def _apply(platform: Platform, mutation: tuple) -> None:
    kind, *args = mutation
    users = platform.users()
    pids = [item.pid for item in platform.contents()]
    if kind == "register_user":
        platform.register_user(f"user{len(users)}", f"User {len(users)}")
    elif kind == "update_user":
        platform.update_user(users[args[0] % len(users)], full_name=args[1])
    elif kind == "add_friendship":
        platform.add_friendship(
            users[args[0] % len(users)], users[args[1] % len(users)]
        )
    elif kind == "context_fix":
        platform.context.report_position(
            users[args[0] % len(users)], args[1], args[2]
        )
    elif kind == "context_friendship":
        platform.context.add_friendship(
            users[args[0] % len(users)], users[args[1] % len(users)]
        )
    elif kind == "upload":
        user, title, tags, timestamp, point, poi = args
        platform.upload(Capture(
            username=users[user % len(users)], title=title,
            tags=tuple(tags), timestamp=timestamp, point=point,
            poi_recs_id=poi,
        ))
    elif not pids:
        return  # nothing to edit / rate / delete / annotate yet
    elif kind == "edit":
        platform.edit_content(
            pids[args[0] % len(pids)], title=args[1], tags=args[2]
        )
    elif kind == "rate":
        platform.rate(pids[args[0] % len(pids)], args[1])
    elif kind == "delete":
        platform.delete_content(pids[args[0] % len(pids)])
    else:
        platform.annotate_region(
            pids[args[0] % len(pids)], 0.1, 0.1, 0.5, 0.5, args[1]
        )


def test_attach_reconciles_without_a_graph_copy(monkeypatch):
    """``attach_store`` hands the store its delta and the corpus graphs
    as they are: no triple is added to any graph before the commit, and
    the store holds what a dataset of the corpus plus a from-scratch
    semanticize would have synced."""
    platform = _busy_platform()
    added, at_commit = [], []
    add, commit = Graph.add, QuadStore.commit

    def adding(self, triple):
        added.append(triple)
        return add(self, triple)

    def committing(self, batch):
        at_commit.append(len(added))
        return commit(self, batch)

    monkeypatch.setattr(Graph, "add", adding)
    monkeypatch.setattr(QuadStore, "commit", committing)
    store = QuadStore()
    platform.attach_store(store)
    assert at_commit == [0]
    monkeypatch.undo()
    expected = QuadStore()
    expected.sync_dataset(platform.corpus.as_dataset(platform.semanticize()))
    assert store.to_nquads() == expected.to_nquads()


class TestDeltasEqualRebuild:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(steps=st.lists(st.tuples(_mutations, st.booleans()),
                          min_size=1, max_size=14))
    def test_any_sequence_any_batching(self, steps):
        platform = _busy_platform()
        store = QuadStore()
        platform.attach_store(store)
        replica = _busy_platform()  # same mutations, never flushed
        for mutation, flush in steps:
            _apply(platform, mutation)
            _apply(replica, mutation)
            if not flush:
                continue
            before = store.generation
            platform.synchronize_store()
            assert store.generation in (before, before + 1)
            assert set(store.graph().triples()) == set(
                platform.semanticize()
            )
            assert platform.synchronize_store() == store.generation
        platform.synchronize_store()
        fresh = QuadStore()
        replica.attach_store(fresh)
        assert store.to_nquads() == fresh.to_nquads()

    @pytest.mark.parametrize("gap, buddies", [
        (300, ["walter"]), (3600, ["walter"]), (3601, []),
    ])
    def test_earlier_capture_relocates_the_items_it_overtakes(
        self, gap, buddies
    ):
        """The invalidation set that is not the mutated row: walter's
        fix arrives *after* oscar's later item was located, and makes
        walter a nearby buddy of it — up to and including the last
        second of the ``position_at`` window."""
        platform = _platform()
        platform.add_friendship("oscar", "walter")
        store = QuadStore()
        platform.attach_store(store)
        item = platform.upload(Capture(
            username="oscar", title="Mole", tags=(),
            timestamp=10_000 + gap, point=MOLE,
        ))
        nearby = (
            "PREFIX tlv: <http://beta.teamlife.it/vocab#> "
            f"SELECT ?who WHERE {{ <{item.resource}> tlv:nearby ?who }}"
        )
        assert len(platform.evaluator().evaluate(nearby)) == 0
        platform.upload(Capture(
            username="walter", title="Mole", tags=(), timestamp=10_000,
            point=NEAR_MOLE,
        ))
        rows = platform.evaluator().evaluate(nearby)
        assert [row["who"] for row in rows] == [
            TL_USER[name] for name in buddies
        ]
        assert set(store.graph().triples()) == set(platform.semanticize())

    def test_fix_reported_to_the_context_platform_relocates(self):
        """The same invalidation without an upload carrying the fix:
        walter's position and the friendship both reach the context
        platform directly."""
        platform = _platform()
        store = QuadStore()
        platform.attach_store(store)
        item = platform.upload(Capture(
            username="oscar", title="Mole", tags=(), timestamp=10_300,
            point=MOLE,
        ))
        platform.synchronize_store()
        nearby = (item.resource, TLV.nearby, TL_USER["walter"])
        platform.context.report_position("walter", 10_000, NEAR_MOLE)
        platform.synchronize_store()
        assert nearby not in store.graph(), "not friends yet"
        platform.context.add_friendship("walter", "oscar")
        platform.synchronize_store()
        assert nearby in store.graph()
        assert set(store.graph().triples()) == set(platform.semanticize())

    def test_context_platform_feeds_one_platform(self):
        platform = _platform()
        with pytest.raises(ValueError, match="already feeds"):
            Platform(corpus=platform.corpus, context=platform.context)
        # ... while it lives: the subscription does not keep it alive
        corpus, context = platform.corpus, platform.context
        del platform
        successor = Platform(corpus=corpus, context=context)
        assert context._on_fix() == successor._relocate_around_fix

    def test_a_dropped_stack_is_freed_without_the_cycle_collector(self):
        """A platform, its context platform and a group-commit store
        hold no reference cycle: dropping them frees every object at
        once, not at the next generation-2 collection."""
        gc.collect()
        gc.disable()
        try:
            platform = _platform()
            store = QuadStore(group_commit=True)
            platform.attach_store(store)
            platform.upload(Capture(
                username="oscar", title="Mole", tags=(), timestamp=10_300,
                point=MOLE,
            ))
            platform.context.report_position("walter", 10_000, NEAR_MOLE)
            assert platform.evaluator().evaluate("ASK { ?s ?p ?o }")
            dropped = [
                weakref.ref(thing) for thing in (
                    platform, platform.context, store, store._group,
                )
            ]
            del platform, store
            assert [ref() for ref in dropped] == [None] * len(dropped)
        finally:
            gc.enable()

    def test_shared_triple_leaves_with_its_last_source(self):
        """Walter's ``foaf:nick`` is stated by every item he is a nearby
        buddy of, and by nothing else."""
        platform = _platform()
        platform.add_friendship("oscar", "walter")
        store = QuadStore()
        platform.attach_store(store)
        platform.upload(Capture(
            username="walter", title="Mole", tags=(), timestamp=10_000,
            point=NEAR_MOLE,
        ))
        pids = [
            platform.upload(Capture(
                username="oscar", title="Mole", tags=(),
                timestamp=timestamp, point=MOLE,
            )).pid
            for timestamp in (10_100, 10_200)
        ]
        nick = (TL_USER["walter"], FOAF.nick, Literal("walter"))
        platform.synchronize_store()
        assert nick in store.graph()
        platform.delete_content(pids[0])
        platform.synchronize_store()
        assert nick in store.graph(), "the other item still says so"
        platform.delete_content(pids[1])
        platform.synchronize_store()
        assert nick not in store.graph()
        assert (TL_USER["walter"], FOAF.name, Literal("walter")) in (
            store.graph()
        ), "the users row's own triples stay"


class TestFlushCost:
    @pytest.fixture()
    def counted(self):
        """A platform with three items attached to a store, and the
        list every later annotator call is appended to."""
        platform = _platform()
        for serial, user in enumerate(USERS):
            platform.upload(Capture(
                username=user, title=TITLES[serial], tags=("mole",),
                timestamp=TIMES[serial], point=MOLE,
            ))
        platform.add_friendship("oscar", "walter")
        store = QuadStore()
        platform.attach_store(store)
        calls = []
        annotate = platform.annotator.annotate

        def counting(title, tags):
            calls.append(title)
            return annotate(title, tags)

        platform.annotator.annotate = counting
        return platform, store, calls

    def test_annotator_runs_once_per_upload_and_text_edit(self, counted):
        platform, store, calls = counted
        item = platform.upload(Capture(
            username="walter", title="Museo Egizio", tags=(),
            timestamp=TIMES[0], point=NEAR_MOLE,  # relocates two items
        ))
        platform.evaluator()
        assert calls == ["Museo Egizio"]
        platform.edit_content(item.pid, title="Mole Antonelliana")
        platform.evaluator()
        platform.edit_content(item.pid, tags=["torino"])
        platform.evaluator()
        assert calls == ["Museo Egizio"] + ["Mole Antonelliana"] * 2
        generation = store.generation

        del calls[:]
        platform.rate(item.pid, 4.0)
        platform.annotate_region(item.pid, 0.1, 0.1, 0.2, 0.2, "note")
        platform.update_user("oscar", full_name="Oscar R.")
        platform.register_user("dora")
        platform.add_friendship("carmen", "dora")
        platform.delete_content(item.pid)
        assert platform.synchronize_store() == generation + 1
        assert calls == []
        assert set(store.graph().triples()) == set(platform.semanticize())

    def test_nothing_pending_commits_nothing(self, counted):
        platform, store, calls = counted
        generation = store.generation
        assert platform.evaluator().generation == generation
        platform.edit_content(1)  # neither title nor tags
        platform.union_graph()
        platform.triple_store()
        assert platform.synchronize_store() == generation
        assert calls == []

    def test_rate_validates_the_pid_first(self, counted):
        platform, store, _ = counted
        before = platform.dump_ntriples()
        with pytest.raises(KeyError, match="no content with pid 99"):
            platform.rate(99, 3.0)
        with pytest.raises(KeyError, match="no content with pid 99"):
            platform.delete_content(99)
        assert platform.dump_ntriples() == before
        assert platform.synchronize_store() == store.generation


class TestStoreOwnership:
    def test_foreign_context_survives_attach_and_flushes(self):
        store = QuadStore()
        foreign = (URIRef("http://example.org/s"),
                   URIRef("http://example.org/p"), Literal("kept"))
        store.insert(foreign, FOREIGN)
        platform = _platform()
        platform.attach_store(store)
        for serial in range(3):
            platform.upload(Capture(
                username="oscar", title=TITLES[serial], tags=(),
                timestamp=TIMES[serial], point=MOLE,
            ))
            platform.synchronize_store()
        platform.delete_content(1)
        platform.synchronize_store()
        assert list(store.graph(FOREIGN).triples()) == [foreign]

    def test_reattach_to_a_reopened_store_is_one_generation(self, tmp_path):
        platform = _platform()
        platform.upload(Capture(
            username="oscar", title=TITLES[0], tags=("mole",),
            timestamp=TIMES[0], point=MOLE,
        ))
        with QuadStore(tmp_path) as store:
            platform.attach_store(store)
            platform.rate(1, 4.0)
            assert platform.synchronize_store() == 2
        # the platform moves on while the store is closed
        platform.upload(Capture(
            username="walter", title=TITLES[1], tags=(),
            timestamp=TIMES[1], point=NEAR_MOLE,
        ))
        platform.rate(1, 1.0)
        with QuadStore(tmp_path) as reopened:
            assert reopened.generation == 2
            platform.attach_store(reopened)
            assert reopened.generation == 3
            platform.attach_store(reopened)  # nothing left to reconcile
            assert reopened.generation == 3
            fresh = QuadStore()
            platform.attach_store(fresh)
            assert reopened.to_nquads() == fresh.to_nquads()

    def test_storeless_platform_uses_a_private_store(self):
        platform = _platform()
        platform.upload(Capture(
            username="oscar", title=TITLES[0], tags=(), timestamp=TIMES[0],
        ))
        evaluator = platform.evaluator()
        assert evaluator.generation == 1
        platform.rate(1, 3.0)
        assert platform.evaluator().generation == 2
        assert set(platform.triple_store().default.triples()) == set(
            platform.semanticize()
        )
