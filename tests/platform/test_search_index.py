"""The label index answers a keystroke on its own.

* ``FullTextIndex.from_graph(g, predicates=P)`` reads only the triples of
  ``P`` and indexes what a walk of every triple filtered to ``P`` would;
* ``SearchInterface.suggest`` scores from the entries built at
  construction and returns what the per-candidate algorithm it replaced
  returns — every candidate scored, its label looked up in the graph and
  re-tokenized — with the display label chosen by the fixed rule, for
  every limit, on an index carried through commits;
* an interface answers for the graph as it was when it was built, the
  same labels in every process, and is shared by threads while a
  rebuilt one is published beside it.
"""

import bisect
import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform import Platform, SearchInterface
from repro.platform.search import LABEL_PREDICATES, LabelIndex
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


def postings(index):
    """Each token of ``index``, in order, with its posting."""
    return {token: index.subjects(token) for token in index.tokens()}


def _walked_postings(graph, predicates=None):
    """The postings a walk of every triple builds, filtered to
    ``predicates`` (all of them when ``None``)."""
    index = FullTextIndex()
    for s, p, o in graph:
        if isinstance(o, Literal) and (predicates is None or p in predicates):
            index.add(s, o.lexical)
    return postings(index)


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
    assert postings(index) == _walked_postings(graph, set(predicates))
    # the default still indexes every literal of the graph
    assert postings(FullTextIndex.from_graph(graph)) == (
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
    """Suggestions as computed before the entries and the top-k: the
    candidates of postings over a full walk, cut token by token, and
    every candidate scored, its label looked up in the graph and
    re-tokenized, its geometry looked up for the geo rank."""

    def __init__(self, graph):
        self.graph = graph
        self.postings = _walked_postings(graph, set(LABEL_PREDICATES))
        self.tokens = sorted(self.postings)
        self.labels = {}

    def candidates(self, prefix):
        """The subjects of the tokens starting with ``prefix``, in
        sorted order, up to the first that brings them to 200."""
        lowered = prefix.lower()
        result = set()
        for token in self.tokens[bisect.bisect_left(self.tokens, lowered):]:
            if not lowered or not token.startswith(lowered):
                break
            result.update(self.postings[token])
            if len(result) >= 200:
                break
        return result

    def suggest(self, prefix, user_point=None):
        suggestions = []
        for subject in self.candidates(prefix):
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


def assert_carried_equals_collected(graph, labels):
    """``labels``, carried through commits, holds what a collect of
    ``graph`` builds: the sorted tokens, each token's posting (its
    subjects in ``str`` order), entries and first-token groups."""
    fresh = LabelIndex.collect(graph)
    assert labels.index.tokens() == fresh.index.tokens()
    assert postings(labels.index) == postings(fresh.index)
    assert labels.entries == fresh.entries
    assert labels.first == fresh.first


@pytest.fixture(scope="module")
def corpus():
    """600 contents on a store whose label index was collected at 500
    and carried since through commits of uploads, title edits, ratings
    and deletes."""
    workload = generate_workload(WorkloadConfig(
        n_users=10, n_contents=600, seed=7))
    first, later = workload.captures[:500], workload.captures[500:]
    platform = Platform()
    populate_platform(platform, dataclasses.replace(workload, captures=first))
    platform.attach_store(QuadStore())
    collected = SearchInterface(platform.union_graph(), []).labels
    for n, capture in enumerate(later):
        item = platform.upload(capture)
        if n % 7 == 0:
            platform.edit_content(item.pid - 300, title=f"Mole {n}")
        if n % 11 == 0:
            platform.rate(item.pid - 200, 4.0)
        if n % 13 == 0:
            platform.delete_content(item.pid - 400)
        if n % 10 == 9:
            platform.evaluator()  # one commit, carrying the index
    graph = platform.union_graph()
    search = SearchInterface(graph, platform.contents())
    assert search.labels is not collected, "the index was not carried"
    return graph, search


def test_the_carried_index_equals_a_fresh_collect(corpus):
    graph, search = corpus
    assert_carried_equals_collected(graph, search.labels)


def test_suggest_equals_the_per_candidate_algorithm(corpus):
    graph, search = corpus
    reference = _Reference(graph)
    prefixes = sorted({
        token[:n] for token in reference.tokens for n in (1, 2, 3)
    })
    assert len(prefixes) > 200
    cut = 0
    for prefix in prefixes:
        candidates = reference.candidates(prefix)
        assert search.labels.index.search_prefix(prefix, 200) == candidates
        cut += len(candidates) >= 200
        for point in (None, MOLE):
            expected = reference.suggest(prefix, point)
            for limit in (1, 3, 10, 200):
                got = [(s.resource, s.label, s.score)
                       for s in search.suggest(prefix, point, limit=limit)]
                assert got == expected[:limit], (prefix, point, limit)
    assert cut, "no prefix reaches the 200-candidate cut"


def test_a_candidate_past_the_cut_ranks_by_its_first_token():
    """The walk ends at a token of 200 subjects ("maa"); a subject whose
    shown label starts past it ("mab") is still a candidate, of the first
    class, when another of its labels has a walked token; one without
    such a label is not a candidate."""
    graph = Graph()
    for n in range(200):
        graph.add((ex(f"s{n:03}"), RDFS.label, Literal(f"Big maa {n}")))
    graph.add((ex("past"), RDFS.label, Literal("Mab")))
    graph.add((ex("past"), GN.alternateName, Literal("maa")))
    graph.add((ex("out"), RDFS.label, Literal("Mac")))
    search = SearchInterface(graph, [])
    expected = _Reference(graph).suggest("ma")
    assert len(expected) == 201
    assert expected[0][:2] == (ex("past"), "Mab")
    for limit in (1, 3, 10, 200):
        got = [(s.resource, s.label, s.score)
               for s in search.suggest("ma", limit=limit)]
        assert got == expected[:limit], limit


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
    store = QuadStore()
    platform.attach_store(store)
    contents = platform.contents()
    first = SearchInterface(platform.union_graph(), contents)
    holder = {"search": first}
    expected = {p: holder["search"].suggest(p) for p in PREFIXES}
    # in and out by turns: each commit carries the index, moving a
    # subject in the "mole" token's order and the "zz" first-token
    # group, behind every suggestion the readers expect
    late = (URIRef("http://zzz.example.org/late"), RDFS.label,
            Literal("Zz mole"))
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
            if store.remove(late) == 0:
                store.insert(late)
            # as the load generator publishes: build, then one store
            holder["search"] = SearchInterface(store.head(), contents)

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
    assert holder["search"].labels is not first.labels, "nothing published"
