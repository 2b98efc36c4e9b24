"""Derived views carried by store commits: the search label index and
the planner statistics.

A view of a store's union is collected once and then carried by every
commit in O(delta) (``repro.store.engine.cached_view``). The property
that holds the label index up: after any sequence of commits, the
carried index is the index a from-scratch ``LabelIndex.collect`` over
the new head builds — the same postings, sorted tokens, per-token
subject orders, entries and first-token groups, and so the same
suggestions. A commit that touches no label keeps the index
object, and an interface pinned to an older generation keeps answering
for it. The same holds for the statistics: the carried triple, class
and per-predicate counts are those ``GraphStatistics.collect`` counts.
"""

import sys
import threading

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis import GraphStatistics
from repro.platform.search import LabelIndex, SearchInterface
from repro.rdf import GN, Literal, RDF, RDFS, URIRef
from repro.sparql.fulltext import FullTextIndex
from repro.store import QuadStore, SnapshotGraph
from repro.store import engine
from repro.store.engine import cached_view, current_view

EX = "http://example.org/"
COMMENT = URIRef("http://www.w3.org/2000/01/rdf-schema#comment")


def ex(name):
    return URIRef(EX + str(name))


def carried(store):
    view = current_view(store.head(), LabelIndex)
    assert view is not None, "the head carries no label index"
    return view


def prefixes_of(*indexes):
    return sorted({
        token[:n]
        for index in indexes for token in index.index.tokens()
        for n in (1, 2, 3)
    })


def postings(index):
    """Each token of ``index``, in order, with its posting."""
    return {token: index.subjects(token) for token in index.tokens()}


def assert_carried_equals_collected(store):
    head = store.head()
    view = carried(store)
    fresh = LabelIndex.collect(head)
    assert view.index.tokens() == fresh.index.tokens()
    assert postings(view.index) == postings(fresh.index)
    assert all(postings(view.index).values()), "an emptied posting kept"
    assert len(view.index._subjects) == len(view.index.tokens()), (
        "a posting kept past its token")
    assert view.entries == fresh.entries
    assert view.first == fresh.first
    # the interface of the head takes the carried index; the reference
    # one indexes a plain copy of the head from scratch
    search = SearchInterface(head, [])
    assert search.labels is view
    reference = SearchInterface(head.copy(), [])
    for prefix in prefixes_of(view, fresh):
        assert search.suggest(prefix) == reference.suggest(prefix), prefix


def indexed_store():
    """A store whose head has had its label index collected, so every
    later commit carries it."""
    store = QuadStore()
    store.insert((ex("seed"), RDFS.label, Literal("Seed")))
    cached_view(store.head(), LabelIndex)
    return store


# ---------------------------------------------------------------------------
# carried == collected, over random commit sequences
# ---------------------------------------------------------------------------

#: Labels that share tokens ("turin", "mole"), tie on the lexical form
#: across language tags, or differ only in their tag.
LABELS = [
    Literal("Turin"), Literal("Turin", lang="de"),
    Literal("Turin", lang="en"), Literal("Torino", lang="it"),
    Literal("Turin Centre"), Literal("Mole Antonelliana"),
    Literal("mole", lang="en"), Literal("Borgo Po"),
]
OBJECTS = st.one_of(
    st.sampled_from(LABELS),
    st.sampled_from([ex("turin"), ex("mole")]),  # not literals
)
PREDICATES = st.sampled_from(
    [RDFS.label, GN.name, GN.alternateName, COMMENT]
)
CONTEXTS = st.sampled_from([None, ex("lod"), ex("ugc")])
OPS = st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from(["a", "b", "c"]),
        PREDICATES,
        OBJECTS,
        CONTEXTS,
    ),
    min_size=1, max_size=5,
)


#: One subject holds "turin" under all three label predicates.
TURIN_THRICE = [
    (True, "a", RDFS.label, Literal("Turin"), None),
    (True, "a", GN.name, Literal("Turin", lang="de"), None),
    (True, "a", GN.alternateName, Literal("Turin Centre"), None),
]


@settings(max_examples=150, deadline=None)
@given(commits=st.lists(OPS, min_size=1, max_size=8))
# it loses one of those labels and gains another in one commit: the
# token stays, and so does the display label...
@example(commits=[TURIN_THRICE, [
    (False, "a", GN.name, Literal("Turin", lang="de"), None),
    (True, "a", GN.name, Literal("Torino", lang="it"), ex("lod")),
]])
# ... or the displayed one goes, and the next shows
@example(commits=[TURIN_THRICE, [
    (False, "a", RDFS.label, Literal("Turin"), None),
    (True, "a", GN.alternateName, Literal("Mole Antonelliana"), None),
]])
# a label removed, added and removed again in one commit: in both
# sides of the delta, gone from the head
@example(commits=[[
    (False, "a", RDFS.label, Literal("Turin"), None),
    (True, "a", RDFS.label, Literal("Turin"), None),
    (False, "a", RDFS.label, Literal("Turin"), None),
]])
def test_label_index_carried_through_commits_equals_a_fresh_collect(commits):
    store = indexed_store()
    for ops in commits:
        batch = store.batch()
        for add, subject, predicate, obj, context in ops:
            triple = (ex(subject), predicate, obj)
            if add:
                batch.insert(triple, context)
            else:
                batch.remove(triple, context)
        store.commit(batch)
        assert_carried_equals_collected(store)


#: Subjects share predicates, objects are shared by subjects, and
#: ``rdf:type`` feeds the class counts.
STAT_PREDICATES = [RDF.type, ex("p"), ex("q")]
STAT_OBJECTS = [ex("C"), ex("D"), Literal("x"), ex("a")]
STAT_OPS = st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(STAT_PREDICATES),
        st.sampled_from(STAT_OBJECTS),
        CONTEXTS,
    ),
    min_size=1, max_size=6,
)


def assert_statistics_equal_a_collect(store):
    head = store.head()
    view = current_view(head, GraphStatistics)
    assert view is not None, "the head carries no statistics"
    fresh = GraphStatistics.collect(head)
    assert view.total == fresh.total
    assert view.predicates == fresh.predicates
    assert view.class_counts == fresh.class_counts


T = (True, "a", RDF.type, ex("C"), None)
TR = (False,) + T[1:]


@settings(max_examples=150, deadline=None)
@given(commits=st.lists(STAT_OPS, min_size=1, max_size=8))
# a triple added and removed in one batch (and the reverse)
@example(commits=[[T, TR], [T], [TR, T]])
# the same triple in two contexts, then gone from one, then both
@example(commits=[[T, T[:4] + (ex("lod"),)], [TR], [TR[:4] + (ex("lod"),)]])
# a subject shared across predicates, one predicate removed
@example(commits=[
    [T, (True, "a", ex("p"), ex("C"), None)],
    [(False, "a", ex("p"), ex("C"), None)],
])
# removes of triples the store does not hold
@example(commits=[[TR, (False, "b", ex("q"), Literal("x"), ex("ugc"))]])
def test_statistics_carried_through_commits_equal_a_fresh_collect(commits):
    store = QuadStore()
    # every predicate keeps a triple, so its distinct counts stay
    # visible when the drawn ones come and go
    store.commit(store.batch().add_all([
        (ex("seed"), predicate, ex("C")) for predicate in STAT_PREDICATES
    ]))
    cached_view(store.head(), GraphStatistics)
    for ops in commits:
        batch = store.batch()
        for add, subject, predicate, obj, context in ops:
            triple = (ex(subject), predicate, obj)
            if add:
                batch.insert(triple, context)
            else:
                batch.remove(triple, context)
        store.commit(batch)
        assert_statistics_equal_a_collect(store)


#: Small enough that a drawn commit folds a context's overlay.
FOLD_LIMIT = 4
#: Five adds into ``lod``: a fold past :data:`FOLD_LIMIT`, leaving
#: ``q``'s one ``lod`` triple in the base — for a later remove to hide.
FOLDED = [(True, "a", ex("q"), ex("D"), ex("lod"))] + [
    (True, s, ex("p"), ex(o), ex("lod")) for s in "bc" for o in "CD"
]
HIDE_Q = [(False, "a", ex("q"), ex("D"), ex("lod"))]
#: Six adds into ``lod``, folded: ``b`` and ``c`` in its base, the
#: literal ``x`` the object of one base triple only.
BASE_BC = [
    (True, s, ex("p"), ex(o), ex("lod")) for s in "bc" for o in "CD"
] + [
    (True, "b", ex("q"), ex("a"), ex("lod")),
    (True, "c", ex("q"), Literal("x"), ex("lod")),
]


def shapes():
    """Every bound/unbound pattern over the drawn terms."""
    subjects = [None] + [ex(name) for name in "abc"]
    for s in subjects:
        for p in [None] + STAT_PREDICATES:
            for o in [None] + STAT_OBJECTS:
                yield s, p, o


def matching(triples, pattern):
    return sorted(
        triple for triple in triples
        if all(want is None or want == got
               for want, got in zip(pattern, triple))
    )


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(commits=st.lists(STAT_OPS, min_size=1, max_size=8))
@example(commits=[FOLDED, HIDE_Q])
@example(commits=[[T, T[:4] + (ex("lod"),)], [TR], [TR[:4] + (ex("lod"),)]])
@example(commits=[FOLDED, [(True, "a", ex("q"), ex("D"), None)], HIDE_Q])
# a subject only in a hidden base triple of lod, and in the default
# context's overlay
@example(commits=[
    FOLDED, HIDE_Q, [(True, "a", ex("p"), Literal("x"), None)],
])
# a subject only in lod's overlay over its base
@example(commits=[BASE_BC, [(True, "a", ex("q"), ex("C"), ex("lod"))]])
# an object only in lod's overlay over its base
@example(commits=[FOLDED, [(True, "b", ex("q"), Literal("x"), ex("lod"))]])
# an object only in a hidden base triple
@example(commits=[BASE_BC, [(False, "c", ex("q"), Literal("x"), ex("lod"))]])
def test_union_lookups_equal_a_brute_force_union(monkeypatch, commits):
    monkeypatch.setattr(engine, "OVERLAY_LIMIT", FOLD_LIMIT)
    store = QuadStore()
    visible = {}  # context -> its visible triples
    for ops in commits:
        batch = store.batch()
        for add, subject, predicate, obj, context in ops:
            triple = (ex(subject), predicate, obj)
            held = visible.setdefault(context, set())
            if add:
                batch.insert(triple, context)
                held.add(triple)
            else:
                batch.remove(triple, context)
                held.discard(triple)
        store.commit(batch)
        head = store.head()
        union = set().union(*visible.values())
        for pattern in shapes():
            # each visible triple once, from whichever contexts hold it
            assert sorted(head.triples(pattern)) == matching(
                union, pattern
            ), pattern
            for context, triples in visible.items():
                assert sorted(store.graph(context).triples(pattern)) == (
                    matching(triples, pattern)
                ), (context, pattern)


def test_removing_the_displayed_label_shows_the_next():
    store = indexed_store()
    turin = ex("turin")
    store.commit(store.batch().add_all([
        (turin, RDFS.label, Literal("Turin", lang="en")),
        (turin, RDFS.label, Literal("Turin", lang="de")),
        (turin, GN.name, Literal("Torino")),
    ]))
    assert carried(store).entries[turin].label == "Turin"
    store.remove((turin, RDFS.label, Literal("Turin", lang="de")))
    assert carried(store).entries[turin].label == "Turin"
    store.remove((turin, RDFS.label, Literal("Turin", lang="en")))
    entry = carried(store).entries[turin]
    assert (entry.label, entry.tokens) == ("Torino", ("torino",))
    assert_carried_equals_collected(store)
    store.remove((turin, GN.name, None))
    assert turin not in carried(store).entries
    assert "torino" not in carried(store).index.tokens()
    assert_carried_equals_collected(store)


def test_a_title_edit_moves_only_the_words_it_changes(monkeypatch):
    # seven words, one of them replaced: one token joins, one leaves,
    # and the five kept are not handed to the posting update
    store = indexed_store()
    pic = ex("pic")
    before = Literal("Tramonto sulla Mole Antonelliana dal Monte Cappuccini")
    after = Literal("Tramonto sulla Mole Antonelliana dal Monte Superga")
    store.insert((pic, RDFS.label, before))
    passed = []
    revised = FullTextIndex.revised

    def counting(self, joined, left):
        passed.append((dict(joined), dict(left)))
        return revised(self, joined, left)

    monkeypatch.setattr(FullTextIndex, "revised", counting)
    store.commit(store.batch().remove((pic, RDFS.label, before))
                 .insert((pic, RDFS.label, after)))
    assert passed == [({"superga": {pic}}, {"cappuccini": {pic}})]
    assert_carried_equals_collected(store)


def test_a_token_two_labels_share_stays_until_both_are_gone():
    store = indexed_store()
    store.insert((ex("a"), RDFS.label, Literal("Mole Antonelliana")))
    store.insert((ex("b"), GN.alternateName, Literal("Mole")))
    store.remove((ex("a"), RDFS.label, None))
    assert carried(store).index.subjects("mole") == (ex("b"),)
    assert ex("b") not in carried(store).entries  # searched, not shown
    assert_carried_equals_collected(store)
    store.remove((ex("b"), None, None))
    assert "mole" not in carried(store).index.tokens()


def test_a_label_in_two_contexts_is_indexed_until_both_are_gone():
    store = indexed_store()
    triple = (ex("mole"), RDFS.label, Literal("Mole"))
    store.insert(triple, ex("lod"))
    store.insert(triple, ex("ugc"))
    store.remove(triple, ex("lod"))
    assert carried(store).entries[ex("mole")].label == "Mole"
    assert_carried_equals_collected(store)
    store.remove(triple, ex("ugc"))
    assert ex("mole") not in carried(store).entries
    assert_carried_equals_collected(store)


# ---------------------------------------------------------------------------
# what a commit shares
# ---------------------------------------------------------------------------


def test_a_commit_without_a_label_triple_keeps_the_view_object():
    store = indexed_store()
    store.insert((ex("mole"), RDFS.label, Literal("Mole")))
    before = carried(store)
    cached_view(store.head(), GraphStatistics)
    stats = current_view(store.head(), GraphStatistics)
    store.insert((ex("mole"), COMMENT, Literal("a label elsewhere")))
    store.insert((ex("mole"), RDFS.label, ex("not-a-literal")))
    assert carried(store) is before
    # the statistics did move: both views ride the same commits
    assert current_view(store.head(), GraphStatistics) is not stats


def test_a_label_commit_shares_what_it_does_not_touch():
    store = indexed_store()
    store.insert((ex("mole"), RDFS.label, Literal("Mole Antonelliana")))
    before = carried(store)
    store.insert((ex("po"), RDFS.label, Literal("Borgo Po")))
    after = carried(store)
    assert after.index.subjects("mole") is before.index.subjects("mole")
    assert after.entries[ex("mole")] is before.entries[ex("mole")]
    # a new label of a known token adds no token: the sorted list is
    # shared too
    store.insert((ex("castle"), GN.alternateName, Literal("borgo")))
    assert carried(store).index.tokens() is after.index.tokens()


def test_an_interface_on_the_next_head_reads_no_triple(monkeypatch):
    store = indexed_store()
    SearchInterface(store.head(), [])
    store.insert((ex("mole"), RDFS.label, Literal("Mole")))
    calls = []
    original = SnapshotGraph.triples

    def counting(self, pattern=(None, None, None)):
        calls.append(pattern)
        return original(self, pattern)

    monkeypatch.setattr(SnapshotGraph, "triples", counting)
    [suggestion] = SearchInterface(store.head(), []).suggest("mol")
    assert calls == []
    assert suggestion.label == "Mole"


def test_an_older_pinned_interface_answers_as_it_did():
    store = indexed_store()
    store.insert((ex("turin"), RDFS.label, Literal("Turin")))
    old = SearchInterface(store.head(), [])
    answered = {p: old.suggest(p) for p in ("tur", "tor", "mol", "se")}
    store.commit(store.batch().add_all([
        (ex("torino"), RDFS.label, Literal("Torino")),
        (ex("mole"), GN.name, Literal("Mole")),
    ]))
    store.remove((ex("turin"), None, None))
    store.remove((ex("seed"), None, None))
    assert {p: old.suggest(p) for p in answered} == answered
    new = SearchInterface(store.head(), [])
    assert [s.label for s in new.suggest("tor")] == ["Torino"]
    assert new.suggest("tur") == [] and new.suggest("se") == []


def test_a_mutable_graph_is_indexed_again_once_it_changed():
    store = indexed_store()
    graph = store.head().copy()
    first = SearchInterface(graph, []).labels
    assert SearchInterface(graph, []).labels is first
    graph.add((ex("mole"), RDFS.label, Literal("Mole")))
    second = SearchInterface(graph, []).labels
    assert second is not first and ex("mole") in second.entries


# ---------------------------------------------------------------------------
# commits publish views while readers take them
# ---------------------------------------------------------------------------


def test_interfaces_built_while_commits_carry_the_index():
    store = indexed_store()
    done = threading.Event()
    failures = []

    def reader() -> None:
        try:
            while not done.is_set():
                head = store.head()
                view = SearchInterface(head, []).labels
                if view.entries != LabelIndex.collect(head).entries:
                    failures.append(head.generation)
        except Exception as exc:  # pragma: no cover - reported below
            failures.append(repr(exc))

    readers = [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers:
            thread.start()
        for n in range(60):
            label = LABELS[n % len(LABELS)]
            if n % 3 == 2:
                store.remove((ex(n % 5), None, None))
            else:
                store.insert((ex(n % 5), RDFS.label, label))
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert failures == []
    assert_carried_equals_collected(store)
