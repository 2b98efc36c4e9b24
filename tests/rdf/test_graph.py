"""Unit and property tests for the indexed triple store."""

import operator

import pytest
from hypothesis import given, strategies as st

from repro.rdf import (
    FOAF,
    Graph,
    Dataset,
    Literal,
    RDF,
    RDFS,
    SIOCT,
    URIRef,
)

EX = "http://example.org/"


def ex(name):
    return URIRef(EX + name)


@pytest.fixture
def small_graph():
    g = Graph()
    g.add((ex("alice"), FOAF.name, Literal("Alice")))
    g.add((ex("alice"), FOAF.knows, ex("bob")))
    g.add((ex("bob"), FOAF.name, Literal("Bob")))
    g.add((ex("bob"), RDF.type, FOAF.Person))
    g.add((ex("alice"), RDF.type, FOAF.Person))
    return g


class TestMutation:
    def test_add_and_len(self, small_graph):
        assert len(small_graph) == 5

    def test_duplicate_add_is_noop(self, small_graph):
        small_graph.add((ex("alice"), FOAF.name, Literal("Alice")))
        assert len(small_graph) == 5

    def test_string_values_coerced(self):
        g = Graph()
        g.add((EX + "s", EX + "p", "object text"))
        s, p, o = next(iter(g))
        assert isinstance(s, URIRef)
        assert isinstance(o, Literal)

    def test_remove_exact(self, small_graph):
        removed = small_graph.remove((ex("alice"), FOAF.knows, ex("bob")))
        assert removed == 1
        assert len(small_graph) == 4

    def test_remove_wildcard(self, small_graph):
        removed = small_graph.remove((ex("alice"), None, None))
        assert removed == 3
        assert len(small_graph) == 2

    def test_remove_nonexistent(self, small_graph):
        assert small_graph.remove((ex("zed"), None, None)) == 0
        assert len(small_graph) == 5

    def test_clear(self, small_graph):
        small_graph.clear()
        assert len(small_graph) == 0
        assert list(small_graph) == []

    def test_remove_keeps_indexes_consistent(self, small_graph):
        small_graph.remove((None, FOAF.name, None))
        # after removal both index directions must agree
        assert list(small_graph.triples((None, FOAF.name, None))) == []
        assert not any(
            p == FOAF.name for _, p, _ in small_graph.triples()
        )

    def test_predicate_must_be_uri(self):
        g = Graph()
        from repro.rdf import BNode

        with pytest.raises(TypeError):
            g.add((ex("s"), BNode(), ex("o")))


class TestPatternMatching:
    def test_fully_bound_hit(self, small_graph):
        triples = list(
            small_graph.triples((ex("bob"), FOAF.name, Literal("Bob")))
        )
        assert len(triples) == 1

    def test_fully_bound_miss(self, small_graph):
        assert (
            list(small_graph.triples((ex("bob"), FOAF.name, Literal("X"))))
            == []
        )

    def test_s_bound(self, small_graph):
        assert len(list(small_graph.triples((ex("alice"), None, None)))) == 3

    def test_p_bound(self, small_graph):
        assert len(list(small_graph.triples((None, FOAF.name, None)))) == 2

    def test_o_bound(self, small_graph):
        assert len(list(small_graph.triples((None, None, FOAF.Person)))) == 2

    def test_sp_bound(self, small_graph):
        assert (
            len(list(small_graph.triples((ex("alice"), RDF.type, None)))) == 1
        )

    def test_po_bound(self, small_graph):
        matches = list(small_graph.triples((None, RDF.type, FOAF.Person)))
        assert {s for s, _, _ in matches} == {ex("alice"), ex("bob")}

    def test_so_bound(self, small_graph):
        matches = list(small_graph.triples((ex("alice"), None, ex("bob"))))
        assert matches == [(ex("alice"), FOAF.knows, ex("bob"))]

    def test_contains_with_wildcard(self, small_graph):
        assert (ex("alice"), None, None) in small_graph
        assert (ex("zed"), None, None) not in small_graph

    def test_count(self, small_graph):
        assert small_graph.count() == 5
        assert small_graph.count((None, RDF.type, None)) == 2


class TestAccessors:
    def test_subjects_deduplicated(self, small_graph):
        assert len(list(small_graph.subjects(RDF.type, FOAF.Person))) == 2

    def test_objects(self, small_graph):
        objs = set(small_graph.objects(ex("alice"), FOAF.knows))
        assert objs == {ex("bob")}

    def test_predicates(self, small_graph):
        preds = set(small_graph.predicates(ex("alice")))
        assert preds == {FOAF.name, FOAF.knows, RDF.type}

    def test_value_found(self, small_graph):
        assert small_graph.value(ex("bob"), FOAF.name) == Literal("Bob")

    def test_value_default(self, small_graph):
        assert small_graph.value(ex("bob"), FOAF.nick, default="?") == "?"

    def test_value_requires_two_bound(self, small_graph):
        with pytest.raises(ValueError):
            small_graph.value(ex("bob"))

    def test_label_language_preference(self):
        g = Graph()
        g.add((ex("mole"), RDFS.label, Literal("Mole Antonelliana", lang="it")))
        g.add((ex("mole"), RDFS.label, Literal("Mole Antonelliana Tower", lang="en")))
        label = g.label(ex("mole"), lang="en")
        assert label.lang == "en"

    def test_label_fallback_any(self):
        g = Graph()
        g.add((ex("x"), RDFS.label, Literal("solo", lang="fr")))
        assert g.label(ex("x"), lang="en") == Literal("solo", lang="fr")

    def test_types(self, small_graph):
        assert small_graph.types(ex("bob")) == {FOAF.Person}

    def test_resource_exists(self, small_graph):
        assert small_graph.resource_exists(ex("alice"))
        assert not small_graph.resource_exists(ex("nobody"))

    def test_copy_independent(self, small_graph):
        dup = small_graph.copy()
        dup.add((ex("new"), FOAF.name, Literal("New")))
        assert len(dup) == len(small_graph) + 1


class TestDataset:
    def test_named_graph_created_on_demand(self):
        ds = Dataset()
        g = ds.graph("urn:graph:dbpedia")
        assert "urn:graph:dbpedia" in ds
        assert g is ds.graph("urn:graph:dbpedia")

    def test_union_graph_merges(self):
        ds = Dataset()
        ds.default.add((ex("a"), FOAF.name, Literal("A")))
        ds.graph("urn:g1").add((ex("b"), FOAF.name, Literal("B")))
        ds.graph("urn:g2").add((ex("c"), FOAF.name, Literal("C")))
        assert len(ds.union_graph()) == 3
        assert len(ds) == 3

    def test_union_deduplicates(self):
        ds = Dataset()
        triple = (ex("a"), FOAF.name, Literal("A"))
        ds.default.add(triple)
        ds.graph("urn:g1").add(triple)
        assert len(ds.union_graph()) == 1

    def test_remove_graph(self):
        ds = Dataset()
        ds.graph("urn:g1").add((ex("a"), FOAF.name, Literal("A")))
        assert ds.remove_graph("urn:g1")
        assert not ds.remove_graph("urn:g1")
        assert len(ds) == 0


class TestInsert:
    def test_insert_reports_newness(self):
        g = Graph()
        assert g.insert((ex("a"), FOAF.name, Literal("A"))) is True
        assert g.insert((ex("a"), FOAF.name, Literal("A"))) is False
        assert len(g) == 1

    def test_insert_coerces_like_add(self):
        g = Graph()
        assert g.insert((EX + "a", FOAF.name, "A")) is True
        assert (ex("a"), FOAF.name, Literal("A")) in g

    def test_duplicate_insert_does_not_bump_version(self):
        g = Graph()
        g.insert((ex("a"), FOAF.name, Literal("A")))
        version = g._version
        g.insert((ex("a"), FOAF.name, Literal("A")))
        assert g._version == version


_NEW = (URIRef(EX + "leak"), FOAF.name, Literal("leak"))

#: every way a caller can try to write a graph it was handed
MUTATORS = {
    "add": lambda g: g.add(_NEW),
    "insert": lambda g: g.insert(_NEW),
    "add_all": lambda g: g.add_all([_NEW]),
    "remove": lambda g: g.remove((None, None, None)),
    "clear": lambda g: g.clear(),
    "+=": lambda g: operator.iadd(g, [_NEW]),
}


def leaked_mutations(handouts):
    """``handout.mutator`` names that did not raise ``FrozenGraphError``
    or changed ``len`` — ``[]`` when every handout refuses every write."""
    from repro.rdf import FrozenGraphError

    leaks = []
    for name, graph in handouts.items():
        assert len(graph), f"{name}: an empty handout proves nothing"
        for op, mutate in MUTATORS.items():
            before = len(graph)
            try:
                mutate(graph)
            except FrozenGraphError:
                if len(graph) == before:
                    continue
            leaks.append(f"{name}.{op}")
    return leaks


class TestFrozenGraph:
    def test_union_graph_is_read_only(self):
        from repro.rdf import FrozenGraph, freeze

        ds = Dataset()
        ds.default.add((ex("a"), FOAF.name, Literal("A")))
        union = ds.union_graph()
        assert isinstance(union, FrozenGraph)
        assert leaked_mutations({
            "Dataset.union_graph()": union,
            "freeze(g)": freeze(ds.default),
        }) == []
        assert len(union) == len(ds.default) == 1  # nothing got through

    def test_frozen_graph_error_is_type_error(self):
        # callers that guarded with TypeError keep working
        from repro.rdf import FrozenGraphError

        assert issubclass(FrozenGraphError, TypeError)

    def test_freeze_is_zero_copy_view(self):
        from repro.rdf import freeze

        g = Graph()
        g.add((ex("a"), FOAF.name, Literal("A")))
        frozen = freeze(g)
        assert set(frozen.triples()) == set(g.triples())
        assert frozen._spo is g._spo  # shared indexes, no copy

    def test_freeze_idempotent(self):
        from repro.rdf import freeze

        frozen = freeze(Graph())
        assert freeze(frozen) is frozen

    def test_copy_thaws(self):
        ds = Dataset()
        ds.default.add((ex("a"), FOAF.name, Literal("A")))
        union = ds.union_graph()
        thawed = union.copy()
        thawed.add((ex("b"), FOAF.name, Literal("B")))
        assert len(thawed) == 2
        assert len(union) == 1

    def test_frozen_reads_still_work(self):
        ds = Dataset()
        ds.default.add((ex("a"), FOAF.name, Literal("A")))
        ds.default.add((ex("a"), RDF.type, FOAF.Person))
        union = ds.union_graph()
        assert union.value(ex("a"), FOAF.name) == Literal("A")
        assert union.types(ex("a")) == {FOAF.Person}
        assert union.count() == 2
        assert "FrozenGraph" in repr(union)


# ---------------------------------------------------------------------------
# Property-based tests on index consistency
# ---------------------------------------------------------------------------

_uris = st.sampled_from([ex(n) for n in "abcdefgh"])
_triples = st.tuples(_uris, _uris, _uris)


@given(st.lists(_triples, max_size=60))
def test_size_matches_distinct_triples(triples):
    g = Graph()
    g.add_all(triples)
    assert len(g) == len(set(triples))


@given(st.lists(_triples, max_size=40), st.lists(_triples, max_size=40))
def test_remove_then_query_consistent(to_add, to_remove):
    g = Graph()
    g.add_all(to_add)
    for t in to_remove:
        g.remove(t)
    expected = set(to_add) - set(to_remove)
    assert set(g.triples()) == expected
    assert len(g) == len(expected)


@given(st.lists(_triples, min_size=1, max_size=50))
def test_every_access_path_agrees(triples):
    g = Graph()
    g.add_all(triples)
    for s, p, o in set(triples):
        assert (s, p, o) in g
        assert o in set(g.objects(s, p))
        assert s in set(g.subjects(p, o))
        assert p in set(g.predicates(s, o))


# ---------------------------------------------------------------------------
# Structure sharing: thaw(frozen) shares the parent's inner index
# containers and copies one only when the child first writes to it
# ---------------------------------------------------------------------------

_PATTERN_SHAPES = [
    tuple(bool(mask & bit) for bit in (1, 2, 4)) for mask in range(8)
]


def _index_snapshot(graph):
    """A deep, independent copy of the three indexes."""
    return [
        {a: {b: set(cs) for b, cs in level1.items()}
         for a, level1 in index.items()}
        for index in (graph._spo, graph._pos, graph._osp)
    ]


def _assert_same_graph(graph, expected):
    """``graph`` answers like one rebuilt from scratch on ``expected``."""
    rebuilt = Graph()
    rebuilt.add_all(expected)
    assert len(graph) == len(rebuilt) == len(expected)
    assert _index_snapshot(graph) == _index_snapshot(rebuilt)
    assert graph.predicate_statistics() == rebuilt.predicate_statistics()
    probes = set(expected) | {(ex("a"), ex("h"), ex("zz"))}
    for s, p, o in probes:
        for bind_s, bind_p, bind_o in _PATTERN_SHAPES:
            pattern = (
                s if bind_s else None,
                p if bind_p else None,
                o if bind_o else None,
            )
            assert sorted(graph.triples(pattern)) == sorted(
                rebuilt.triples(pattern)
            ), pattern


_writes = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "remove_s"]), _triples),
    max_size=40,
)


def _apply_writes(graph, model, writes):
    for op, (s, p, o) in writes:
        if op == "add":
            graph.add((s, p, o))
            model.add((s, p, o))
        elif op == "remove":
            graph.remove((s, p, o))
            model.discard((s, p, o))
        else:  # a pattern remove: several triples, several containers
            graph.remove((s, None, None))
            model.difference_update(
                [triple for triple in model if triple[0] == s]
            )


class TestThawSharing:
    @given(st.lists(_triples, max_size=40), _writes)
    def test_child_equals_rebuild_and_parent_never_changes(
        self, seed, writes
    ):
        from repro.rdf import freeze, thaw

        builder = Graph()
        builder.add_all(seed)
        parent = freeze(builder)
        pinned = _index_snapshot(parent)
        child = thaw(parent)
        model = set(seed)
        _apply_writes(child, model, writes)
        _assert_same_graph(child, model)
        assert _index_snapshot(parent) == pinned
        assert len(parent) == len(set(seed))

    @given(st.lists(_triples, min_size=1, max_size=30),
           st.lists(_writes, min_size=2, max_size=4))
    def test_generations_share_again_after_each_freeze(self, seed, rounds):
        """thaw -> write -> freeze -> thaw ...: every generation keeps
        its own contents, and no ownership survives a freeze — a
        container the grandchild copies was never written in place."""
        from repro.rdf import freeze, thaw

        builder = Graph()
        builder.add_all(seed)
        current = freeze(builder)
        model = set(seed)
        history = [(current, _index_snapshot(current), set(model))]
        for writes in rounds:
            child = thaw(current)
            assert child._owned == set()
            _apply_writes(child, model, writes)
            current = freeze(child)
            assert current._owned is None
            history.append((current, _index_snapshot(current), set(model)))
        for frozen, pinned, contents in history:
            assert _index_snapshot(frozen) == pinned
            assert set(frozen.triples()) == contents

    def test_thaw_copies_no_inner_container_until_written(self):
        from repro.rdf import freeze, thaw

        builder = Graph()
        builder.add((ex("a"), FOAF.name, Literal("A")))
        builder.add((ex("a"), FOAF.knows, ex("b")))
        builder.add((ex("c"), FOAF.name, Literal("C")))
        parent = freeze(builder)
        child = thaw(parent)
        assert child._spo is not parent._spo
        assert all(
            child._spo[s] is parent._spo[s] for s in parent._spo
        )
        child.add((ex("a"), FOAF.name, Literal("Alice")))
        # the written path is the child's own now, its siblings are not
        assert child._spo[ex("a")] is not parent._spo[ex("a")]
        assert child._spo[ex("a")][FOAF.knows] is (
            parent._spo[ex("a")][FOAF.knows]
        )
        assert child._spo[ex("c")] is parent._spo[ex("c")]
        assert set(parent.objects(ex("a"), FOAF.name)) == {Literal("A")}

    def test_clear_on_a_thawed_graph_leaves_the_parent(self):
        from repro.rdf import freeze, thaw

        builder = Graph()
        builder.add((ex("a"), FOAF.name, Literal("A")))
        parent = freeze(builder)
        child = thaw(parent)
        child.clear()
        child.add((ex("b"), FOAF.name, Literal("B")))
        assert set(child.triples()) == {(ex("b"), FOAF.name, Literal("B"))}
        assert set(parent.triples()) == {(ex("a"), FOAF.name, Literal("A"))}
