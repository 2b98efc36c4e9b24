"""Tests for the paper's future-work extensions: WordNet-style noun
pruning, batch annotation, user-assisted disambiguation."""

import pytest

from repro.core import (
    BatchAnnotator,
    Reason,
    UserAssistedDisambiguator,
    build_default_annotator,
)
from repro.core.filtering import FilterOutcome
from repro.lod import build_lod_corpus
from repro.nlp import is_concrete_noun, prune_abstract, sense_of
from repro.platform import Capture, Platform
from repro.rdf import DBPR, DCTERMS, Graph
from repro.resolvers import Candidate
from repro.sparql import Point

NEAR_MOLE = Point(7.6930, 45.0690)


class TestSenses:
    def test_paper_examples_are_abstract(self):
        # the paper's own examples of what to discard
        assert is_concrete_noun("difference", "en") is False
        assert is_concrete_noun("joyness", "en") is False

    def test_concrete_nouns(self):
        assert is_concrete_noun("tower", "en") is True
        assert is_concrete_noun("piazza", "it") is True

    def test_unknown_returns_none(self):
        assert is_concrete_noun("zorgon", "en") is None

    def test_sense_of(self):
        sense = sense_of("tramonto", "it")
        assert sense.lexfile == "noun.event"
        assert not sense.is_concrete

    def test_prune_keeps_unknown_by_default(self):
        kept = prune_abstract(["tower", "difference", "zorgon"], "en")
        assert kept == ["tower", "zorgon"]

    def test_annotator_pruning_option(self):
        corpus = build_lod_corpus()
        pruning = build_default_annotator(
            corpus, prune_abstract_nouns=True
        )
        plain = build_default_annotator(corpus)
        title = "tramonto tramonto tramonto sul fiume"
        assert "tramonto" in plain.annotate(title).frequency_words
        assert "tramonto" not in pruning.annotate(title).frequency_words

    def test_pruning_keeps_concrete_fallback_words(self):
        annotator = build_default_annotator(
            build_lod_corpus(), prune_abstract_nouns=True
        )
        result = annotator.annotate("torre torre torre sul fiume")
        assert "torre" in result.frequency_words


class TestBatchAnnotator:
    @pytest.fixture
    def loaded_platform(self):
        platform = Platform()
        platform.register_user("walter", "Walter Goix")
        for i in range(7):
            platform.upload(Capture(
                username="walter",
                title="Tramonto sulla Mole Antonelliana",
                tags=("mole",),
                timestamp=1000 + i,
                point=NEAR_MOLE,
            ))
        return platform

    def test_full_run(self, loaded_platform):
        target = Graph()
        batch = BatchAnnotator(loaded_platform, target, batch_size=3)
        stats = batch.run()
        assert stats.processed == 7
        assert stats.annotated == 7
        assert stats.failed == 0
        assert batch.done
        assert (
            loaded_platform.content(1).resource,
            DCTERMS.subject,
            DBPR.Mole_Antonelliana,
        ) in target

    def test_resume_from_checkpoint(self, loaded_platform):
        batch = BatchAnnotator(loaded_platform, batch_size=2)
        batch.run(max_items=3)
        assert batch.checkpoint.last_pid == 3
        assert not batch.done
        stats = batch.run()  # resumes
        assert stats.processed == 7
        assert batch.done

    def test_progress_callbacks(self, loaded_platform):
        seen = []
        batch = BatchAnnotator(
            loaded_platform, batch_size=3,
            on_progress=lambda cp: seen.append(cp.last_pid),
        )
        batch.run()
        # 7 items, batch size 3 -> callbacks at 3, 6 and final 7
        assert seen == [3, 6, 7]

    def test_failure_isolated(self, loaded_platform):
        class Exploding:
            def annotate(self, title, tags):
                raise RuntimeError("boom")

        loaded_platform.annotator = Exploding()
        batch = BatchAnnotator(loaded_platform)
        stats = batch.run(max_items=2)
        assert stats.failed == 2
        assert stats.processed == 2
        assert batch.checkpoint.last_pid == 2  # still advanced

    def test_invalid_batch_size(self, loaded_platform):
        with pytest.raises(ValueError):
            BatchAnnotator(loaded_platform, batch_size=0)


def _ambiguous_outcome():
    paris = Candidate(
        resource=DBPR.Paris, label="Paris", score=0.9,
        resolver="dbpedia", word="Paris",
    )
    myth = Candidate(
        resource=DBPR["Paris_(mythology)"], label="Paris (mythology)",
        score=0.7, resolver="dbpedia", word="Paris",
    )
    return FilterOutcome(
        word="Paris", reason=Reason.AMBIGUOUS,
        survivors=[paris, myth],
    )


class TestUserAssistedDisambiguation:
    def test_prompt_only_for_ambiguous(self):
        disambiguator = UserAssistedDisambiguator()
        outcome = _ambiguous_outcome()
        prompt = disambiguator.prompt_for(outcome)
        assert prompt is not None
        assert prompt.word == "Paris"
        assert len(prompt.options) == 2
        assert "dbpedia" in prompt.option_labels()[0]

        annotated = FilterOutcome("x", Reason.ANNOTATED)
        assert disambiguator.prompt_for(annotated) is None

    def test_learned_prior_resolves(self):
        disambiguator = UserAssistedDisambiguator()
        outcome = _ambiguous_outcome()
        assert disambiguator.resolve(outcome).reason is Reason.AMBIGUOUS
        disambiguator.record_choice("Paris", DBPR.Paris)
        resolved = disambiguator.resolve(outcome)
        assert resolved.reason is Reason.ANNOTATED
        assert resolved.chosen.resource == DBPR.Paris

    def test_case_insensitive_words(self):
        disambiguator = UserAssistedDisambiguator()
        disambiguator.record_choice("paris", DBPR.Paris)
        assert disambiguator.learned_resource("PARIS") == DBPR.Paris

    def test_tie_stays_ambiguous(self):
        disambiguator = UserAssistedDisambiguator()
        disambiguator.record_choice("Paris", DBPR.Paris)
        disambiguator.record_choice("Paris", DBPR["Paris_(mythology)"])
        assert disambiguator.learned_resource("Paris") is None

    def test_majority_wins(self):
        disambiguator = UserAssistedDisambiguator()
        disambiguator.record_choice("Paris", DBPR.Paris)
        disambiguator.record_choice("Paris", DBPR.Paris)
        disambiguator.record_choice("Paris", DBPR["Paris_(mythology)"])
        assert disambiguator.learned_resource("Paris") == DBPR.Paris

    def test_min_confidence(self):
        # one pick is confidence enough; none is not
        disambiguator = UserAssistedDisambiguator()
        assert disambiguator.learned_resource("Paris") is None
        disambiguator.record_choice("Paris", DBPR.Paris)
        assert disambiguator.learned_resource("Paris") == DBPR.Paris

    def test_learned_resource_not_among_survivors(self):
        disambiguator = UserAssistedDisambiguator()
        disambiguator.record_choice("Paris", DBPR.Rome)  # odd pick
        outcome = disambiguator.resolve(_ambiguous_outcome())
        assert outcome.reason is Reason.AMBIGUOUS

    def test_accuracy_evaluation(self):
        disambiguator = UserAssistedDisambiguator()
        disambiguator.record_choice("Paris", DBPR.Paris)
        disambiguator.record_choice("Rome", DBPR.Turin)  # wrong
        correct, total = disambiguator.accuracy_against(
            {"Paris": DBPR.Paris, "Rome": DBPR.Rome, "Milan": DBPR.Milan}
        )
        assert (correct, total) == (1, 2)
