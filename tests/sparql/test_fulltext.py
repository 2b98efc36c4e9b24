"""Full-text matching and inverted index tests."""

import sys
import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rdf import FOAF, Graph, Literal, RDFS, URIRef
from repro.sparql.fulltext import (
    FullTextIndex,
    contains,
    tokenize_text,
)

EX = "http://example.org/"


def ex(name):
    return URIRef(EX + name)


class TestTokenizeText:
    def test_lowercases(self):
        assert tokenize_text("Mole Antonelliana") == ["mole", "antonelliana"]

    def test_punctuation_split(self):
        assert tokenize_text("Turin, Italy!") == ["turin", "italy"]

    def test_empty(self):
        assert tokenize_text("") == []

    def test_unicode_words(self):
        assert "cittá" in tokenize_text("la cittá vecchia")


class TestContains:
    def test_single_word(self):
        assert contains("The Mole Antonelliana in Turin", "mole")

    def test_case_insensitive(self):
        assert contains("TURIN by night", "turin")

    def test_implicit_and(self):
        assert contains("picture of Turin at night", "turin night")
        assert not contains("picture of Turin", "turin night")

    def test_explicit_and(self):
        assert contains("Turin by night", "turin AND night")

    def test_or(self):
        assert contains("a view of Rome", "turin OR rome")
        assert not contains("a view of Milan", "turin OR rome")

    def test_quoted_phrase(self):
        assert contains("the Mole Antonelliana tower", '"mole antonelliana"')
        assert not contains("Antonelliana built the Mole", '"mole antonelliana"')

    def test_empty_pattern(self):
        assert not contains("anything", "")

    def test_or_with_phrases(self):
        assert contains(
            "piazza castello today", '"piazza castello" OR "mole antonelliana"'
        )


class TestFullTextIndex:
    def _graph(self):
        g = Graph()
        g.add((ex("turin"), RDFS.label, Literal("Turin", lang="en")))
        g.add((ex("turin"), RDFS.label, Literal("Torino", lang="it")))
        g.add((ex("mole"), RDFS.label, Literal("Mole Antonelliana", lang="it")))
        g.add((ex("alice"), FOAF.name, Literal("Alice Turin")))
        g.add((ex("turin"), RDFS.comment, Literal("city in north Italy")))
        g.add((ex("rome"), RDFS.label, Literal("Rome")))
        # non-literal objects must be ignored
        g.add((ex("turin"), RDFS.seeAlso, ex("rome")))
        return g

    def test_search_single_token(self):
        idx = FullTextIndex.from_graph(self._graph())
        assert idx.search("torino") == {ex("turin")}

    def test_search_intersection(self):
        idx = FullTextIndex.from_graph(self._graph())
        assert idx.search("mole antonelliana") == {ex("mole")}

    def test_search_across_subjects(self):
        idx = FullTextIndex.from_graph(self._graph())
        assert idx.search("turin") == {ex("turin"), ex("alice")}

    def test_search_miss(self):
        idx = FullTextIndex.from_graph(self._graph())
        assert idx.search("paris") == set()

    def test_search_empty_query(self):
        idx = FullTextIndex.from_graph(self._graph())
        assert idx.search("") == set()

    def test_predicate_restriction(self):
        idx = FullTextIndex.from_graph(
            self._graph(), predicates=[RDFS.label]
        )
        assert idx.search("alice") == set()
        assert idx.search("turin") == {ex("turin")}

    def test_prefix_search(self):
        idx = FullTextIndex.from_graph(self._graph())
        # "tur" prefix matches Turin label and Alice Turin
        assert ex("turin") in idx.search_prefix("tur")
        assert ex("alice") in idx.search_prefix("tur")

    def test_prefix_search_incremental_narrowing(self):
        idx = FullTextIndex.from_graph(self._graph())
        assert idx.search_prefix("to") >= {ex("turin")}  # torino
        assert idx.search_prefix("tori") == {ex("turin")}

    def test_prefix_search_empty_prefix(self):
        idx = FullTextIndex.from_graph(self._graph())
        assert idx.search_prefix("") == set()

    def test_add_invalidates_prefix_cache(self):
        idx = FullTextIndex.from_graph(self._graph())
        assert idx.search_prefix("zanzibar") == set()
        idx.add(ex("z"), "Zanzibar")
        assert idx.search_prefix("zanzibar") == {ex("z")}

    def test_len_counts_tokens(self):
        idx = FullTextIndex()
        idx.add(ex("a"), "one two two")
        assert len(idx) == 2

    def test_tokens_sorted(self):
        idx = FullTextIndex()
        idx.add(ex("a"), "zebra apple")
        assert idx.tokens() == ["apple", "zebra"]


def _cut_token_by_token(index, prefix, limit):
    """``search_prefix`` as first written: the subjects of the tokens
    starting with ``prefix``, added token by token in sorted order until
    there are ``limit``."""
    result = set()
    for token in index.tokens():
        if token.startswith(prefix):
            result.update(index.subjects(token))
            if len(result) >= limit:
                break
    return result


@settings(max_examples=300, deadline=None)
@given(
    labels=st.lists(
        st.tuples(st.sampled_from(["ma", "mab", "mac", "mad", "mb", "x"]),
                  st.integers(0, 30)),
        max_size=80,
    ),
    prefix=st.sampled_from(["m", "ma", "mac", "x", "z"]),
    limit=st.integers(1, 40),
)
# the union lands on the limit at "mab", so "mac" is not walked
@example(labels=[("ma", 1), ("ma", 2), ("mab", 2), ("mab", 3), ("mac", 4)],
         prefix="m", limit=3)
# "mab" alone holds the limit: it ends the walk without a union copy
@example(labels=[("ma", 1), *(("mab", n) for n in range(2, 6)), ("mac", 9)],
         prefix="m", limit=3)
def test_prefix_search_stops_at_the_token_that_reaches_the_limit(
        labels, prefix, limit):
    """The walk's shortcuts (no union while the subject counts sum below
    the limit, a token as large as the limit not copied) cut where the
    token-by-token union does — also when subjects repeat across tokens
    and when the union lands exactly on the limit."""
    index = FullTextIndex()
    for token, subject in labels:
        index.add(ex(f"s{subject}"), token)
    assert index.search_prefix(prefix, limit) == (
        _cut_token_by_token(index, prefix, limit))


_TOKENS = st.sampled_from(["ma", "mab", "mac", "x"])
_SUBJECTS = st.integers(0, 6).map(lambda n: ex(f"s{n}"))
_MOVES = st.dictionaries(_TOKENS, st.sets(_SUBJECTS, max_size=4), max_size=4)


def _index_of(pairs):
    index = FullTextIndex()
    for token, subject in pairs:
        index.add(subject, token)
    index.tokens()
    return index


@settings(max_examples=200, deadline=None)
@given(
    held=st.sets(st.tuples(_TOKENS, _SUBJECTS), max_size=20),
    joined=_MOVES,
    left=_MOVES,
)
# a subject leaves and joins one token in one revision: it stays
@example(held={("ma", ex("s1"))}, joined={"ma": {ex("s1")}},
         left={"ma": {ex("s1")}})
def test_revised_equals_an_index_built_afresh(held, joined, left):
    """``revised`` takes ``left`` out, then puts ``joined`` in, and
    gives the index a build of what is held then makes; the index it
    revised is left as it was, and shares every posting neither names
    with the new one, which is that index itself when no subject
    moved."""
    index = _index_of(held)
    before = {token: index.subjects(token) for token in index.tokens()}
    revised = index.revised(joined, left)
    now = {pair for pair in held
           if pair[1] not in left.get(pair[0], ())}
    now |= {(token, s) for token, subjects in joined.items()
            for s in subjects}
    fresh = _index_of(now)
    assert revised.tokens() == fresh.tokens()
    for token in fresh.tokens():
        assert revised.subjects(token) == fresh.subjects(token)
    assert {token: index.subjects(token) for token in index.tokens()} == (
        before)
    for token, posting in before.items():
        if token not in joined and token not in left:
            assert revised.subjects(token) is posting
    moved = any(
        subjects - set(before.get(token, ()))
        for token, subjects in joined.items()
    ) or any(
        subjects & set(before.get(token, ()))
        for token, subjects in left.items()
    )
    assert (revised is index) == (not moved)


def test_threads_search_a_built_index_without_writing_it():
    """A built index is only read by searches: threads searching it at
    once all see the answers one thread saw, and the sorted tokens and
    postings stay the objects they were."""
    index = FullTextIndex()
    for n in range(300):
        index.add(ex(f"s{n}"), f"mole m{n % 17} turin{n % 5}")
    tokens = index.tokens()
    postings = dict(index._subjects)
    queries = ["mole", "m3 turin2", "turin4", "zz"]
    expected = {q: (index.search(q), index.search_prefix(q[:2], 20))
                for q in queries}
    failures = []

    def reader(offset):
        for k in range(200):
            query = queries[(offset + k) % len(queries)]
            got = (index.search(query), index.search_prefix(query[:2], 20))
            if got != expected[query]:
                failures.append(query)

    threads = [threading.Thread(target=reader, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert index.tokens() is tokens
    assert all(index._subjects[token] is posting
               for token, posting in postings.items())
