"""Language identification tests."""

import pytest

from repro.nlp import (
    LanguageDetector,
    build_profile,
    default_detector,
    detect_language,
)
from repro.nlp.langdetect import PROFILE_SIZE


class TestProfiles:
    def test_profile_ordered_by_frequency(self):
        profile = build_profile("aaa bbb aaa")
        # 'a' appears most often among unigrams
        assert profile.index("a") < profile.index("b")

    def test_profile_size_capped(self):
        text = " ".join(
            a + b + c for a in "abcdefgh" for b in "ijklmnop"
            for c in "qrstuvwx"
        )
        assert len(build_profile(text)) == PROFILE_SIZE

    def test_empty_text(self):
        assert build_profile("") == []

    def test_profile_deterministic(self):
        text = "la vita è bella"
        assert build_profile(text) == build_profile(text)


class TestDetection:
    def test_english(self):
        assert detect_language(
            "A beautiful picture of the old tower taken during my trip"
        ) == "en"

    def test_italian(self):
        assert detect_language(
            "Una bellissima foto della torre scattata durante il viaggio"
        ) == "it"

    def test_french(self):
        assert detect_language(
            "Une belle photo de la vieille tour prise pendant mon voyage"
        ) == "fr"

    def test_spanish(self):
        assert detect_language(
            "Una foto hermosa de la torre antigua tomada durante el viaje"
        ) == "es"

    def test_german(self):
        assert detect_language(
            "Ein schönes Bild des alten Turms während meiner Reise"
        ) == "de"

    def test_paper_style_short_titles(self):
        assert detect_language("Tramonto sulla Mole Antonelliana") == "it"
        assert detect_language("Sunset over the city walls") == "en"

    def test_empty_text_default(self):
        assert detect_language("") == "en"
        assert detect_language("12345 !!!") == "en"

    def test_rank_returns_all_languages(self):
        detector = default_detector()
        ranking = detector.rank("the picture of the tower")
        assert len(ranking) == len(detector.languages)
        assert ranking[0].language == "en"
        assert all(
            ranking[i].confidence >= ranking[i + 1].confidence
            for i in range(len(ranking) - 1)
        )

    def test_confidence_in_unit_interval(self):
        detection = default_detector().detect_with_confidence(
            "una foto del mercato"
        )
        assert 0.0 <= detection.confidence <= 1.0

    def test_detect_with_confidence_empty(self):
        detection = default_detector().detect_with_confidence("")
        assert detection.confidence == 0.0


class TestCustomDetector:
    def test_custom_language_set(self):
        detector = LanguageDetector(
            samples={
                "xx": "zab zab zab zub zub",
                "yy": "kip kip kip kop kop",
            }
        )
        assert detector.detect("zab zub") == "xx"
        assert detector.detect("kip kop") == "yy"
        assert detector.languages == ("xx", "yy")
