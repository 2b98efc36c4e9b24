"""Morphological analyzer, tokenizer and term-frequency tests."""

import pytest

from repro.nlp import (
    MorphologicalAnalyzer,
    POS_COMMON,
    POS_FUNCTION,
    POS_NUMBER,
    POS_PROPER,
    relevant_words,
    tokenize,
)


class TestTokenizer:
    def test_sentence_initial_flags(self):
        tokens = tokenize("Sunset over Turin. Great view!")
        flags = {t.text: t.sentence_initial for t in tokens}
        assert flags["Sunset"] is True
        assert flags["Turin"] is False
        assert flags["Great"] is True

    def test_offsets(self):
        tokens = tokenize("ab cd")
        assert (tokens[0].start, tokens[0].end) == (0, 2)
        assert (tokens[1].start, tokens[1].end) == (3, 5)

    def test_apostrophes_kept(self):
        tokens = tokenize("l'arco di San Francesco")
        assert tokens[0].text == "l'arco"

    def test_numeric_flag(self):
        tokens = tokenize("photo 42 of 2012")
        assert tokens[1].is_numeric
        assert not tokens[0].is_numeric

    def test_all_caps(self):
        tokens = tokenize("UNESCO site")
        assert tokens[0].is_all_caps
        assert not tokens[1].is_all_caps


class TestProperNounExtraction:
    def test_mid_sentence_capitalized_is_np(self):
        analyzer = MorphologicalAnalyzer("en")
        nps = analyzer.proper_nouns("a sunny day in Turin")
        assert [t.lemma for t in nps] == ["Turin"]
        assert nps[0].np_score >= 0.8

    def test_sentence_initial_common_word_below_threshold(self):
        analyzer = MorphologicalAnalyzer("en")
        tokens = analyzer.analyze("Sunset over Turin")
        sunset = next(t for t in tokens if t.form == "Sunset")
        assert sunset.np_score < 0.2
        nps = analyzer.proper_nouns("Sunset over Turin")
        assert [t.lemma for t in nps] == ["Turin"]

    def test_sentence_initial_unknown_word_above_threshold(self):
        analyzer = MorphologicalAnalyzer("en")
        nps = analyzer.proper_nouns("Antonelli built the tower")
        assert [t.lemma for t in nps] == ["Antonelli"]

    def test_gazetteer_multiword(self):
        analyzer = MorphologicalAnalyzer("it")
        nps = analyzer.proper_nouns("una foto della mole antonelliana")
        assert [t.lemma for t in nps] == ["Mole Antonelliana"]
        assert nps[0].is_multiword
        assert nps[0].np_score == pytest.approx(0.95)

    def test_gazetteer_longest_match(self):
        analyzer = MorphologicalAnalyzer("it")
        nps = analyzer.proper_nouns("visita alla piazza san carlo oggi")
        assert [t.lemma for t in nps] == ["Piazza San Carlo"]

    def test_capitalized_run_merges(self):
        analyzer = MorphologicalAnalyzer("en")
        nps = analyzer.proper_nouns("we visited Palazzo Carignano today")
        assert [t.lemma for t in nps] == ["Palazzo Carignano"]
        assert nps[0].is_multiword

    def test_numbers_excluded(self):
        analyzer = MorphologicalAnalyzer("en")
        tokens = analyzer.analyze("photo 42")
        assert tokens[-1].pos == POS_NUMBER
        assert analyzer.proper_nouns("photo 42") == []

    def test_stopwords_tagged_function(self):
        analyzer = MorphologicalAnalyzer("en")
        tokens = analyzer.analyze("the tower")
        assert tokens[0].pos == POS_FUNCTION

    def test_acronym(self):
        analyzer = MorphologicalAnalyzer("en")
        tokens = analyzer.analyze("a UNESCO site")
        unesco = next(t for t in tokens if t.form == "UNESCO")
        assert unesco.pos == POS_PROPER
        assert unesco.np_score == pytest.approx(0.7)

    def test_capitalized_stopword_sentence_initial_not_np(self):
        analyzer = MorphologicalAnalyzer("en")
        nps = analyzer.proper_nouns("The view from here")
        assert nps == []

    def test_min_score_parameter(self):
        analyzer = MorphologicalAnalyzer("en")
        # sentence-initial unknown scores 0.5: filtered at 0.6
        assert analyzer.proper_nouns("Antonelli built it",
                                     min_score=0.6) == []

    def test_italian_title_full_pipeline(self):
        analyzer = MorphologicalAnalyzer("it")
        nps = analyzer.proper_nouns(
            "Tramonto sulla Mole Antonelliana a Torino"
        )
        assert [t.lemma for t in nps] == ["Mole Antonelliana", "Torino"]


class TestLemmatization:
    def test_english_plural(self):
        analyzer = MorphologicalAnalyzer("en")
        assert analyzer.lemmatize("towers") == "tower"
        assert analyzer.lemmatize("cities") == "city"
        assert analyzer.lemmatize("churches") == "church"

    def test_english_exceptions(self):
        analyzer = MorphologicalAnalyzer("en")
        assert analyzer.lemmatize("people") == "person"
        assert analyzer.lemmatize("taken") == "take"

    def test_short_words_untouched(self):
        analyzer = MorphologicalAnalyzer("en")
        assert analyzer.lemmatize("bus") == "bus"

    def test_italian_plural(self):
        analyzer = MorphologicalAnalyzer("it")
        assert analyzer.lemmatize("musei") == "museo"
        assert analyzer.lemmatize("chiese") == "chiesa"

    def test_common_word_lemma_in_analysis(self):
        analyzer = MorphologicalAnalyzer("en")
        tokens = analyzer.analyze("nice pictures")
        assert tokens[-1].lemma == "picture"
        assert tokens[-1].pos == POS_COMMON


class TestTermFrequency:
    def test_ranks_by_frequency(self):
        words = relevant_words(
            "sunset sunset tower bridge sunset tower", "en", top_k=2
        )
        assert words == ["sunset", "tower"]

    def test_stopwords_excluded(self):
        words = relevant_words("the the the castle", "en")
        assert "the" not in words

    def test_exclude_set(self):
        words = relevant_words(
            "castle tower castle", "en", exclude={"castle"}
        )
        assert words == ["tower"]

    def test_min_length(self):
        assert relevant_words("go go go inn", "en") == ["inn"]

    def test_numbers_excluded(self):
        assert relevant_words("2012 2012 2012 fest", "en") == ["fest"]

    def test_empty(self):
        assert relevant_words("", "en") == []
