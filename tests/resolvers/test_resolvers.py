"""Resolver and broker tests."""

import sys
import threading

import pytest

from repro.lod import build_lod_corpus
from repro.rdf import DBPR, EVRIR, OWL, RDF, URIRef
from repro.resolvers import (
    Candidate,
    DBpediaResolver,
    EvriResolver,
    GRAPH_DBPEDIA,
    GRAPH_EVRI,
    GRAPH_GEONAMES,
    GRAPH_OTHER,
    GeonamesResolver,
    SemanticBroker,
    SindiceResolver,
    ZemantaResolver,
    build_evri_graph,
    classify_graph,
    default_resolvers,
)
from repro.lod.geonames import geonames_uri
from repro.resolvers import base


@pytest.fixture(scope="module")
def corpus():
    return build_lod_corpus()


@pytest.fixture(scope="module")
def dbpedia_resolver(corpus):
    return DBpediaResolver(corpus.dbpedia)


@pytest.fixture(scope="module")
def geonames_resolver(corpus):
    return GeonamesResolver(corpus.geonames)


class TestClassifyGraph:
    def test_families(self):
        assert classify_graph(
            URIRef("http://sws.geonames.org/3165524/")
        ) == GRAPH_GEONAMES
        assert classify_graph(
            URIRef("http://dbpedia.org/resource/Turin")
        ) == GRAPH_DBPEDIA
        assert classify_graph(
            URIRef("http://www.evri.com/entity/Turin")
        ) == GRAPH_EVRI
        assert classify_graph(
            URIRef("http://linkedgeodata.org/triplify/node1")
        ) == GRAPH_OTHER


class TestCandidate:
    def test_graph_autofilled(self):
        candidate = Candidate(
            resource=DBPR.Turin, label="Turin", score=0.9,
            resolver="x", word="turin",
        )
        assert candidate.graph == GRAPH_DBPEDIA

    def test_score_validated(self):
        with pytest.raises(ValueError):
            Candidate(
                resource=DBPR.Turin, label="T", score=1.5,
                resolver="x", word="t",
            )


class TestDBpediaResolver:
    def test_exact_label_max_score(self, dbpedia_resolver):
        candidates = dbpedia_resolver.resolve_term("Turin")
        assert candidates[0].resource == DBPR.Turin
        assert candidates[0].score == 1.0

    def test_multilingual_label(self, dbpedia_resolver):
        candidates = dbpedia_resolver.resolve_term("Torino", language="it")
        assert candidates
        assert candidates[0].resource == DBPR.Turin

    def test_redirect_followed(self, dbpedia_resolver):
        candidates = dbpedia_resolver.resolve_term("Coliseum")
        resources = [c.resource for c in candidates]
        assert DBPR.Colosseum in resources
        assert DBPR.Coliseum not in resources

    def test_disambiguation_pages_skipped(self, dbpedia_resolver):
        candidates = dbpedia_resolver.resolve_term("Paris")
        resources = {c.resource for c in candidates}
        assert DBPR["Paris_(disambiguation)"] not in resources
        assert DBPR.Paris in resources

    def test_ambiguous_word_multiple_candidates(self, dbpedia_resolver):
        candidates = dbpedia_resolver.resolve_term("Paris")
        resources = {c.resource for c in candidates}
        # the city and the Trojan prince both match
        assert DBPR.Paris in resources
        assert DBPR["Paris_(mythology)"] in resources

    def test_multiword(self, dbpedia_resolver):
        candidates = dbpedia_resolver.resolve_term("Mole Antonelliana")
        assert candidates[0].resource == DBPR.Mole_Antonelliana
        assert candidates[0].score == 1.0

    def test_entity_type_filter(self, corpus, dbpedia_resolver):
        from repro.rdf import DBPO

        typed = dbpedia_resolver.resolve_term(
            "Paris", entity_type=DBPO.City
        )
        assert {c.resource for c in typed} == {DBPR.Paris}

    def test_no_match(self, dbpedia_resolver):
        assert dbpedia_resolver.resolve_term("qwertyuiop") == []

    def test_candidates_sorted_by_score(self, dbpedia_resolver):
        candidates = dbpedia_resolver.resolve_term("Paris")
        scores = [c.score for c in candidates]
        assert scores == sorted(scores, reverse=True)


class TestGeonamesResolver:
    def test_canonical_name(self, geonames_resolver):
        candidates = geonames_resolver.resolve_term("Turin")
        assert candidates[0].resource == geonames_uri(3165524)
        assert candidates[0].entity_type == "place"

    def test_alternate_name(self, geonames_resolver):
        candidates = geonames_resolver.resolve_term("Torino")
        assert candidates
        assert candidates[0].resource == geonames_uri(3165524)
        assert candidates[0].label == "Turin"  # canonical label reported

    def test_population_ranking(self, geonames_resolver):
        rome = geonames_resolver.resolve_term("Rome")[0]
        florence = geonames_resolver.resolve_term("Florence")[0]
        assert rome.score > florence.score

    def test_non_place_no_match(self, geonames_resolver):
        assert geonames_resolver.resolve_term("Colosseum") == []


class TestSindiceResolver:
    def test_cross_graph_results(self, corpus):
        resolver = SindiceResolver(
            [corpus.dbpedia, corpus.geonames, corpus.linkedgeodata]
        )
        candidates = resolver.resolve_term("Turin")
        graphs = {c.graph for c in candidates}
        # candidates refer to several ontologies — the paper's rationale
        # for graph-level (not resolver-level) priorities
        assert GRAPH_DBPEDIA in graphs
        assert GRAPH_GEONAMES in graphs
        assert GRAPH_OTHER in graphs  # linkedgeodata node

    def test_does_not_skip_disambiguation(self, corpus):
        resolver = SindiceResolver([corpus.dbpedia])
        candidates = resolver.resolve_term("Paris")
        resources = {c.resource for c in candidates}
        assert DBPR["Paris_(disambiguation)"] in resources


class TestEvriResolver:
    def test_term_person(self):
        resolver = EvriResolver()
        candidates = resolver.resolve_term("Gaudí")
        assert candidates
        assert candidates[0].entity_type in ("person", "place")

    def test_full_text_finds_multiword_entities(self):
        resolver = EvriResolver()
        candidates = resolver.resolve_text(
            "a picture of the mole antonelliana at night"
        )
        assert any(
            c.resource == EVRIR.Mole_Antonelliana for c in candidates
        )

    def test_full_text_no_partial_match(self):
        resolver = EvriResolver()
        candidates = resolver.resolve_text("the molecular structure")
        assert not any("Mole" in str(c.resource) for c in candidates)

    def test_evri_graph_sameas(self):
        g = build_evri_graph()
        assert (EVRIR.Turin, OWL.sameAs, DBPR.Turin) in g
        assert len(list(g.triples((EVRIR.Turin, RDF.type, None)))) == 1


class TestZemantaResolver:
    def test_full_text_label_scan(self, corpus):
        resolver = ZemantaResolver(corpus.dbpedia)
        candidates = resolver.resolve_text("Visiting the Eiffel Tower")
        assert any(c.resource == DBPR.Eiffel_Tower for c in candidates)

    def test_redirect_label_returned_unresolved(self, corpus):
        resolver = ZemantaResolver(corpus.dbpedia)
        candidates = resolver.resolve_text("inside the Coliseum today")
        resources = {c.resource for c in candidates}
        # Zemanta reports the redirect page; cleanup is the filter's job
        assert DBPR.Coliseum in resources

    def test_longer_matches_score_higher(self, corpus):
        resolver = ZemantaResolver(corpus.dbpedia)
        candidates = resolver.resolve_text(
            "Mole Antonelliana in Turin"
        )
        by_resource = {c.resource: c for c in candidates}
        assert (
            by_resource[DBPR.Mole_Antonelliana].score
            > by_resource[DBPR.Turin].score
        )


class TestBroker:
    def test_empty_resolvers_rejected(self):
        with pytest.raises(ValueError):
            SemanticBroker([])

    def test_per_word_grouping(self, corpus):
        broker = SemanticBroker(default_resolvers(corpus))
        result = broker.resolve(["Turin", "Colosseum"])
        assert set(result.words()) == {"Turin", "Colosseum"}
        assert result.per_word["Turin"]
        assert result.per_word["Colosseum"]

    def test_dedup_keeps_best_score(self, corpus):
        broker = SemanticBroker(default_resolvers(corpus))
        result = broker.resolve(["Turin"])
        resources = [c.resource for c in result.per_word["Turin"]]
        assert len(resources) == len(set(resources))
        turin = next(
            c for c in result.per_word["Turin"]
            if c.resource == DBPR.Turin
        )
        assert turin.score == 1.0  # the DBpedia exact match won the merge

    def test_full_text_candidates(self, corpus):
        broker = SemanticBroker(default_resolvers(corpus))
        result = broker.resolve(
            ["night"], text="mole antonelliana by night"
        )
        assert any(
            "Mole_Antonelliana" in str(c.resource)
            for c in result.full_text
        )

    def test_duplicate_words_resolved_once(self, corpus):
        broker = SemanticBroker(default_resolvers(corpus))
        result = broker.resolve(["Turin", "Turin"])
        assert len(result.per_word) == 1

    def test_all_candidates_flattened(self, corpus):
        broker = SemanticBroker(default_resolvers(corpus))
        result = broker.resolve(["Turin"], text="Turin")
        assert len(result.all_candidates()) >= len(
            result.per_word["Turin"]
        )

    def test_resolver_broker_alias(self):
        from repro.resolvers import ResolverBroker

        assert ResolverBroker is SemanticBroker


class _ExplodingResolver:
    """Raises partway through a word list — after having "yielded"
    nothing — to exercise per-resolver isolation."""

    name = "exploding"
    supports_full_text = True

    def resolve_term(self, word, language=None):
        raise ConnectionError("resolver endpoint down")

    def resolve_text(self, text, language=None):
        raise TimeoutError("full-text endpoint hung")


class TestBrokerIsolation:
    def test_failing_resolver_does_not_lose_healthy_candidates(
        self, corpus
    ):
        healthy = SemanticBroker(default_resolvers(corpus))
        broken = SemanticBroker(
            [_ExplodingResolver()] + default_resolvers(corpus)
        )
        words = ["Turin", "Colosseum"]
        reference = healthy.resolve(words, text="Turin by night")
        result = broken.resolve(words, text="Turin by night")
        # the merge still sees everything the healthy resolvers found
        for word in words:
            assert [c.resource for c in result.per_word[word]] == [
                c.resource for c in reference.per_word[word]
            ]
        assert [c.resource for c in result.full_text] == [
            c.resource for c in reference.full_text
        ]

    def test_failures_recorded_and_degraded_flag(self, corpus):
        broker = SemanticBroker(
            [_ExplodingResolver()] + default_resolvers(corpus)
        )
        result = broker.resolve(["Turin"], text="Turin")
        assert result.degraded
        assert result.failed_resolvers() == ["exploding"]
        # one failure per word plus one for the full-text phase
        assert len(result.failures) == 2
        term_failure = next(
            f for f in result.failures if f.word == "Turin"
        )
        assert term_failure.resolver == "exploding"
        assert "ConnectionError" in term_failure.error
        text_failure = next(
            f for f in result.failures if f.word is None
        )
        assert "TimeoutError" in text_failure.error

    def test_healthy_broker_not_degraded(self, corpus):
        broker = SemanticBroker(default_resolvers(corpus))
        result = broker.resolve(["Turin"])
        assert not result.degraded
        assert result.failures == []

    def test_all_resolvers_failing_yields_empty_candidates(self):
        broker = SemanticBroker([_ExplodingResolver()])
        result = broker.resolve(["Turin"], text="Turin")
        assert result.per_word["Turin"] == []
        assert result.full_text == []
        assert result.degraded


class TestMergeTieBreak:
    @staticmethod
    def _candidate(resolver, score=0.8, resource=DBPR.Turin):
        return Candidate(
            resource=resource, label="Turin", score=score,
            resolver=resolver, word="turin",
        )

    def test_score_tie_resolves_to_smaller_resolver_name(self):
        """Contract: "ties resolve by resolver then resource" — the
        lexicographically *smaller* resolver name wins, regardless of
        arrival order."""
        a = self._candidate("aardvark")
        z = self._candidate("zebra")
        assert SemanticBroker._merge([a, z])[0].resolver == "aardvark"
        assert SemanticBroker._merge([z, a])[0].resolver == "aardvark"

    def test_higher_score_still_beats_resolver_order(self):
        low = self._candidate("aardvark", score=0.5)
        high = self._candidate("zebra", score=0.9)
        merged = SemanticBroker._merge([low, high])
        assert merged[0].resolver == "zebra"
        assert merged[0].score == 0.9

    def test_merge_output_sorted_by_score_then_resource(self):
        first = self._candidate(
            "x", score=0.9, resource=DBPR.Apple
        )
        second = self._candidate(
            "x", score=0.9, resource=DBPR.Banana
        )
        third = self._candidate("x", score=0.5, resource=DBPR.Turin)
        merged = SemanticBroker._merge([third, second, first])
        assert [c.resource for c in merged] == [
            DBPR.Apple, DBPR.Banana, DBPR.Turin
        ]


class TestTermMemo:
    """The corpus resolvers answer each distinct argument tuple once per
    instance; what they return does not change."""

    WORDS = ("Turin", "turin", "Mole Antonelliana", "Torino", "nowhere")

    @pytest.fixture(params=["dbpedia", "geonames", "sindice"])
    def make(self, request, corpus):
        return {
            "dbpedia": lambda: DBpediaResolver(corpus.dbpedia),
            "geonames": lambda: GeonamesResolver(corpus.geonames),
            "sindice": lambda: SindiceResolver(
                [corpus.dbpedia, corpus.geonames]
            ),
        }[request.param]

    @staticmethod
    def _counting(resolver, monkeypatch):
        computed = []
        compute = type(resolver)._resolve_term

        def counting(self, *arguments):
            computed.append(arguments)
            return compute(self, *arguments)

        monkeypatch.setattr(type(resolver), "_resolve_term", counting)
        return computed

    def test_once_per_distinct_arguments(self, make, monkeypatch):
        resolver = make()
        computed = self._counting(resolver, monkeypatch)
        asks = [(w, lang) for w in self.WORDS for lang in ("it", "en")]
        first = [resolver.resolve_term(*ask) for ask in asks]
        again = [resolver.resolve_term(*ask) for ask in reversed(asks)]
        assert again == first[::-1]
        assert len(computed) == len(asks)
        assert len(resolver._memo) == len(asks)
        # a fresh list per call: a caller's edit reaches no other caller
        first[0].clear()
        assert resolver.resolve_term(*asks[0]) == again[-1]

    def test_answers_what_the_resolver_computes(self, make, monkeypatch):
        memoised = make()
        asks = [(w, lang) for w in self.WORDS for lang in (None, "it")]
        answers = [memoised.resolve_term(*ask) for ask in asks * 2]
        monkeypatch.setattr(base, "TERM_MEMO_LIMIT", 0)  # keeps nothing
        computed = make()
        assert answers == [computed.resolve_term(*ask) for ask in asks * 2]
        assert len(computed._memo) == 0

    def test_one_memo_per_instance(self, make, monkeypatch):
        first, second = make(), make()
        computed = self._counting(first, monkeypatch)
        first.resolve_term("Turin", "it")
        second.resolve_term("Turin", "it")
        assert len(computed) == 2

    def test_full_memo_keeps_answering(self, make, monkeypatch):
        monkeypatch.setattr(base, "TERM_MEMO_LIMIT", 2)
        resolver = make()
        computed = self._counting(resolver, monkeypatch)
        answers = [resolver.resolve_term(w, "it") for w in self.WORDS]
        assert [resolver.resolve_term(w, "it") for w in self.WORDS] == (
            answers
        )
        assert len(resolver._memo) == 2
        assert len(computed) == 2 * len(self.WORDS) - 2

    def test_shared_by_threads(self, make):
        # more workers than cores, switching every microsecond: every
        # caller gets the answer, and each key is kept once
        resolver = make()
        expected = {w: make().resolve_term(w, "it") for w in self.WORDS}
        seen, errors = [], []

        def work(offset):
            try:
                for k in range(40):
                    word = self.WORDS[(offset + k) % len(self.WORDS)]
                    seen.append(
                        resolver.resolve_term(word, "it") == expected[word]
                    )
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=work, args=(n,)) for n in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert seen == [True] * (8 * 40)
        assert len(resolver._memo) == len(self.WORDS)

    def test_entity_type_is_part_of_the_key(self, corpus):
        resolver = DBpediaResolver(corpus.dbpedia)
        typed = resolver.resolve_term(
            "Turin", "it", entity_type=URIRef("http://example.org/None")
        )
        assert typed == []
        assert resolver.resolve_term("Turin", "it")
