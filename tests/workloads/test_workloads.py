"""Workload generator and gold corpus tests."""

import pytest

from repro.core import build_default_annotator
from repro.platform import Platform
from repro.workloads import (
    GOLD_CORPUS,
    WorkloadConfig,
    generate_workload,
    populate_platform,
    score_pipeline,
)
from repro.workloads.generator import FRIEND_DEGREE
from repro.workloads.gold import GoldExample, ScoredCorpus


class TestGenerator:
    def test_deterministic(self):
        a = generate_workload(WorkloadConfig(n_contents=30, seed=7))
        b = generate_workload(WorkloadConfig(n_contents=30, seed=7))
        assert [c.title for c in a.captures] == [
            c.title for c in b.captures
        ]
        assert a.friendships == b.friendships

    def test_seed_changes_output(self):
        a = generate_workload(WorkloadConfig(n_contents=30, seed=1))
        b = generate_workload(WorkloadConfig(n_contents=30, seed=2))
        assert [c.title for c in a.captures] != [
            c.title for c in b.captures
        ]

    def test_sizes(self):
        w = generate_workload(WorkloadConfig(n_users=8, n_contents=50))
        assert len(w.usernames) == 8
        assert len(w.captures) == 50
        assert len(w.friendships) == 8 * FRIEND_DEGREE // 2

    def test_unknown_city_rejected(self):
        with pytest.raises(ValueError):
            generate_workload(WorkloadConfig(cities=("Atlantis",)))

    def test_captures_have_geo(self):
        w = generate_workload(WorkloadConfig(n_contents=20))
        assert all(c.point is not None for c in w.captures)

    def test_timestamps_increasing(self):
        w = generate_workload(WorkloadConfig(n_contents=20))
        stamps = [c.timestamp for c in w.captures]
        assert stamps == sorted(stamps)

    def test_multi_city(self):
        w = generate_workload(
            WorkloadConfig(
                n_contents=60, cities=("Turin", "Rome"), seed=3
            )
        )
        titles = " ".join(c.title for c in w.captures)
        assert "Mole" in titles or "Torino" in titles or "Turin" in titles
        assert "Colosseo" in titles or "Rome" in titles or "Roma" in titles

    def test_populate_platform(self):
        platform = Platform()
        w = generate_workload(
            WorkloadConfig(n_users=5, n_contents=10, seed=11)
        )
        pids = populate_platform(platform, w)
        assert len(pids) == 10
        assert len(platform.users()) == 5
        rated = [
            platform.content(pids[i]).rating for i in w.ratings
        ]
        assert all(1.0 <= r <= 5.0 for r in rated)


class TestGoldCorpus:
    def test_corpus_nonempty_and_multilingual(self):
        languages = {e.language for e in GOLD_CORPUS if e.language}
        assert languages >= {"en", "it", "fr", "es", "de"}

    def test_has_abstention_cases(self):
        assert any(
            None in e.expected.values() for e in GOLD_CORPUS
        )

    def test_has_redirect_probe(self):
        assert any(
            "Coliseum" in e.expected for e in GOLD_CORPUS
        )

    def test_score_pipeline_headline(self):
        """The headline annotation quality: high precision AND recall
        over the gold corpus (the FIG1 experiment's summary row)."""
        score = score_pipeline(build_default_annotator())
        assert score.precision >= 0.9
        assert score.recall >= 0.9
        assert score.f1 >= 0.9
        assert score.language_accuracy >= 0.85

    def test_scoring_logic_false_negative(self):
        class AbstainEverything:
            def annotate(self, title, tags=()):
                from repro.core.annotator import AnnotationResult

                return AnnotationResult(
                    title=title, plain_tags=list(tags), language="en"
                )

        score = score_pipeline(
            AbstainEverything(),
            corpus=[GoldExample("x", expected={"x": object()})],
        )
        assert score.false_negatives == 1
        assert score.recall == 0.0

    def test_scoring_logic_perfect_abstention(self):
        class AbstainEverything:
            def annotate(self, title, tags=()):
                from repro.core.annotator import AnnotationResult

                return AnnotationResult(
                    title=title, plain_tags=list(tags), language="en"
                )

        score = score_pipeline(
            AbstainEverything(),
            corpus=[GoldExample("x", expected={"x": None})],
        )
        assert score.abstain_correct == 1
        assert score.precision == 1.0

    def test_empty_scorecard_metrics(self):
        empty = ScoredCorpus()
        assert empty.precision == 1.0
        assert empty.recall == 1.0
        assert empty.language_accuracy == 1.0
