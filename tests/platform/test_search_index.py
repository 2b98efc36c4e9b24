"""The label index answers a keystroke on its own.

* ``FullTextIndex.from_graph(g, predicates=P)`` reads only the triples of
  ``P`` and indexes what a walk of every triple filtered to ``P`` would;
* ``SearchInterface.suggest`` scores from the entries built at
  construction and returns what the per-candidate algorithm it replaced
  returns — every candidate's label looked up in the graph and
  re-tokenized — with the display label chosen by the fixed rule;
* an interface answers for the graph as it was when it was built, the
  same labels in every process, and is shared by threads while a
  rebuilt one is published beside it.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform import Platform, SearchInterface
from repro.platform.search import LABEL_PREDICATES
from repro.rdf import DBPR, GEO, GN, RDFS, Graph, Literal, URIRef
from repro.sparql import Point
from repro.sparql.fulltext import FullTextIndex, tokenize_text
from repro.sparql.geo import haversine_km, try_parse_point
from repro.store import QuadStore
from repro.store.engine import SnapshotGraph
from repro.workloads.generator import (
    WorkloadConfig,
    generate_workload,
    populate_platform,
)

EX = "http://example.org/search/"
MOLE = Point(7.6934, 45.0692)
#: the end-to-end benchmark's search prefixes, then two cities whose
#: DBpedia resources carry several labels
PREFIXES = ("mol", "tor", "mus", "pal", "par", "egi", "ant", "gran",
            "barc", "tur")
SRC = str(Path(__file__).resolve().parents[2] / "src")


def ex(name: str) -> URIRef:
    return URIRef(EX + name)


def _walked_postings(graph, predicates=None):
    """The index a walk of every triple builds, filtered to
    ``predicates`` (all of them when ``None``)."""
    index = FullTextIndex()
    for s, p, o in graph:
        if isinstance(o, Literal) and (predicates is None or p in predicates):
            index.add(s, p, o.lexical)
    return dict(index._postings)


# ---------------------------------------------------------------------------
# (a) from_graph reads the given predicates only, and indexes the same
# ---------------------------------------------------------------------------

_WORDS = st.sampled_from(
    ["turin", "Torino", "mole", "Mole's", "gran madre", "Turín", "", "42"])
_OBJECTS = st.one_of(
    st.builds(Literal, _WORDS),
    st.builds(lambda w, lang: Literal(w, lang=lang), _WORDS,
              st.sampled_from(["en", "it", "de"])),
    st.builds(ex, st.sampled_from(["a", "b"])),
)
_PREDICATES = st.sampled_from(
    [RDFS.label, GN.name, GN.alternateName, ex("p"), ex("q")])
_TRIPLES = st.lists(
    st.tuples(st.builds(ex, st.sampled_from(["s0", "s1", "s2", "s3"])),
              _PREDICATES, _OBJECTS),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(
    triples=_TRIPLES,
    predicates=st.lists(_PREDICATES, max_size=4),
    in_store=st.booleans(),
)
def test_from_graph_equals_a_filtered_full_walk(triples, predicates,
                                                in_store):
    if in_store:
        # a union over two contexts, where a triple may sit in both
        store = QuadStore()
        for index, triple in enumerate(triples):
            store.insert(triple, ex(f"g{index % 2}"))
            if index % 3 == 0:
                store.insert(triple, ex("g1"))
        graph = store.head()
    else:
        graph = Graph()
        for triple in triples:
            graph.add(triple)
    index = FullTextIndex.from_graph(graph, predicates=predicates)
    assert dict(index._postings) == _walked_postings(graph, set(predicates))
    # the default still indexes every literal of the graph
    assert dict(FullTextIndex.from_graph(graph)._postings) == (
        _walked_postings(graph))


def test_from_graph_reads_only_the_given_predicates():
    store = QuadStore()
    for n in range(50):
        store.insert((ex(f"s{n}"), ex("p"), Literal(f"word{n}")))
    store.insert((ex("s0"), RDFS.label, Literal("Turin", lang="en")))
    store.insert((ex("s0"), RDFS.label, ex("not-a-literal")))
    read = []
    original = SnapshotGraph.triples

    def counting(self, pattern=(None, None, None)):
        for triple in original(self, pattern):
            read.append(triple)
            yield triple

    SnapshotGraph.triples = counting
    try:
        index = FullTextIndex.from_graph(store.head(), [RDFS.label])
    finally:
        SnapshotGraph.triples = original
    assert len(read) == 2
    assert index.tokens() == ["turin"]


# ---------------------------------------------------------------------------
# (b) suggest equals the per-candidate algorithm it replaced
# ---------------------------------------------------------------------------


def _display_label(graph, subject):
    """The fixed rule: a literal rdfs:label, else a literal gn:name; the
    smallest ``(language tag or "", lexical form)`` among several."""
    for predicate in (RDFS.label, GN.name):
        labels = [o for o in graph.objects(subject, predicate)
                  if isinstance(o, Literal)]
        if labels:
            return min(labels, key=lambda l: (l.lang or "", l.lexical)).lexical
    return None


def _label_score(prefix, label):
    tokens = tokenize_text(label)
    lowered = prefix.lower()
    if not tokens:
        return 0.0
    if tokens[0].startswith(lowered):
        return 2.0 + len(lowered) / max(1, len(tokens[0]))
    if any(t.startswith(lowered) for t in tokens):
        return 1.0
    return 0.5


class _Reference:
    """Suggestions as computed before the entries: candidates from an
    index over a full walk, each candidate's label looked up in the
    graph and re-tokenized, its geometry looked up for the geo rank."""

    def __init__(self, graph):
        self.graph = graph
        self.index = FullTextIndex()
        self.index._postings.update(
            _walked_postings(graph, set(LABEL_PREDICATES)))
        self.labels = {}

    def suggest(self, prefix, user_point=None):
        suggestions = []
        for subject in self.index.search_prefix(prefix, limit=200):
            if subject not in self.labels:
                self.labels[subject] = _display_label(self.graph, subject)
            label = self.labels[subject]
            if label is None:
                continue
            score = _label_score(prefix, label)
            if user_point is not None:
                geometry = self.graph.value(subject, GEO.geometry)
                target = (try_parse_point(geometry)
                          if geometry is not None else None)
                if target is not None:
                    distance = haversine_km(user_point, target)
                    score += max(0.0, 1.0 - min(distance, 1000.0) / 1000.0)
            suggestions.append((subject, label, round(score, 4)))
        suggestions.sort(key=lambda s: (-s[2], str(s[0])))
        return suggestions


def _platform(contents: int, seed: int = 7) -> Platform:
    platform = Platform()
    populate_platform(platform, generate_workload(WorkloadConfig(
        n_users=10, n_contents=contents, seed=seed)))
    return platform


@pytest.fixture(scope="module")
def corpus():
    platform = _platform(600)
    graph = platform.union_graph()
    return graph, SearchInterface(graph, platform.contents())


def test_suggest_equals_the_per_candidate_algorithm(corpus):
    graph, search = corpus
    reference = _Reference(graph)
    prefixes = sorted({
        token[:n] for token in reference.index.tokens()
        for n in (1, 2, 3)
    })
    assert len(prefixes) > 200
    for prefix in prefixes:
        for point in (None, MOLE):
            expected = reference.suggest(prefix, point)
            for limit in (10, 200):
                got = [(s.resource, s.label, s.score)
                       for s in search.suggest(prefix, point, limit=limit)]
                assert got == expected[:limit], (prefix, point, limit)


def test_a_single_label_is_the_one_graph_value_gave(corpus):
    graph, search = corpus
    several = 0
    for subject, entry in search.labels.entries.items():
        literals = [o for o in graph.objects(subject, RDFS.label)
                    if isinstance(o, Literal)]
        if len(literals) == 1:
            assert entry.label == graph.value(subject, RDFS.label).lexical
        several += len(literals) > 1
    assert several, "no subject with several labels in the corpus"


# ---------------------------------------------------------------------------
# (c) an interface answers for the graph as it was when it was built
# ---------------------------------------------------------------------------


def test_suggest_answers_for_the_graph_at_construction():
    graph = Graph()
    graph.add((ex("turin"), RDFS.label, Literal("Turin", lang="en")))
    graph.add((ex("torino"), GN.name, Literal("Torino")))
    search = SearchInterface(graph, [])
    before = {p: search.suggest(p) for p in ("tur", "tor", "turbo")}
    graph.remove((ex("turin"), None, None))
    graph.add((ex("torino"), RDFS.label, Literal("Turbo Torino")))
    graph.add((ex("turbo"), RDFS.label, Literal("Turbo")))
    assert {p: search.suggest(p) for p in before} == before
    assert [s.label for s in before["tur"]] == ["Turin"]
    assert [s.label for s in before["tor"]] == ["Torino"]
    assert before["turbo"] == []


# ---------------------------------------------------------------------------
# The same labels in every process
# ---------------------------------------------------------------------------

_CHILD = """
from repro.platform import Platform, SearchInterface
from repro.workloads.generator import (
    WorkloadConfig, generate_workload, populate_platform)

platform = Platform()
populate_platform(platform, generate_workload(WorkloadConfig(
    n_users=10, n_contents=100, seed=7)))
search = SearchInterface(platform.union_graph(), platform.contents())
for prefix in {prefixes!r}:
    for s in search.suggest(prefix, limit=200):
        print(prefix, s.resource, repr(s.label), s.score)
"""


def _suggestions_in_a_process(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "-c", _CHILD.format(prefixes=PREFIXES)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout


def test_suggestions_are_the_same_in_every_process():
    first = _suggestions_in_a_process("1")
    assert first == _suggestions_in_a_process("2")
    turin = [line for line in first.splitlines()
             if line.startswith(f"tur {DBPR.Turin} ")]
    # "Turin"@de sorts before "Turin"@en, "Turín"@es and "Torino"@it
    assert turin == [f"tur {DBPR.Turin} 'Turin' 2.6"]


def test_turin_label_comes_from_the_smallest_language_tag():
    graph = Graph()
    for lexical, lang in (("Torino", "it"), ("Turín", "es"),
                          ("Turin", "en"), ("Turin", "de")):
        graph.add((DBPR.Turin, RDFS.label, Literal(lexical, lang=lang)))
    graph.add((DBPR.Turin, GN.name, Literal("Aaa")))
    [suggestion] = SearchInterface(graph, []).suggest("torin")
    assert suggestion.label == "Turin"
    # found by "Torino"@it, scored on the tokens of the label it shows
    assert suggestion.score == 0.5


# ---------------------------------------------------------------------------
# Threads share an interface while a rebuilt one is published
# ---------------------------------------------------------------------------


def test_suggest_from_threads_while_a_rebuild_is_published():
    platform = _platform(100)
    graph, contents = platform.union_graph(), platform.contents()
    holder = {"search": SearchInterface(graph, contents)}
    expected = {p: holder["search"].suggest(p) for p in PREFIXES}
    done = threading.Event()
    failures = []

    def reader(offset: int) -> None:
        try:
            for n in range(150):
                prefix = PREFIXES[(offset + n) % len(PREFIXES)]
                if holder["search"].suggest(prefix) != expected[prefix]:
                    failures.append(prefix)
        except Exception as exc:  # pragma: no cover - reported below
            failures.append(repr(exc))

    def publisher() -> None:
        while not done.is_set():
            # as the load generator publishes: build, then one store
            holder["search"] = SearchInterface(graph, contents)

    readers = [threading.Thread(target=reader, args=(k,)) for k in range(8)]
    swapping = threading.Thread(target=publisher)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        swapping.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        done.set()
        swapping.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in [*readers, swapping])
    assert failures == []
