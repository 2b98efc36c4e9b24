"""String similarity tests (classic reference values included)."""

import pytest
from hypothesis import given, strategies as st

from repro.nlp import (
    best_match,
    jaro,
    jaro_winkler,
    jaro_winkler_ci,
    levenshtein,
    normalized_levenshtein,
)


class TestJaro:
    def test_identical(self):
        assert jaro("turin", "turin") == 1.0

    def test_empty(self):
        assert jaro("", "abc") == 0.0
        assert jaro("abc", "") == 0.0

    def test_no_overlap(self):
        assert jaro("abc", "xyz") == 0.0

    def test_classic_martha_marhta(self):
        assert jaro("martha", "marhta") == pytest.approx(0.944, abs=1e-3)

    def test_classic_dixon_dicksonx(self):
        assert jaro("dixon", "dicksonx") == pytest.approx(0.767, abs=1e-3)

    def test_symmetric(self):
        assert jaro("crate", "trace") == jaro("trace", "crate")


class TestJaroWinkler:
    def test_classic_martha_marhta(self):
        assert jaro_winkler("martha", "marhta") == pytest.approx(
            0.961, abs=1e-3
        )

    def test_classic_dwayne_duane(self):
        assert jaro_winkler("dwayne", "duane") == pytest.approx(
            0.84, abs=1e-2
        )

    def test_prefix_boost(self):
        assert jaro_winkler("prefixes", "prefixed") > jaro(
            "prefixes", "prefixed"
        )

    def test_prefix_capped_at_four(self):
        # identical 10-char prefix must not boost more than 4 chars worth
        a, b = "abcdefghijX", "abcdefghijY"
        expected = jaro(a, b) + 4 * 0.1 * (1 - jaro(a, b))
        assert jaro_winkler(a, b) == pytest.approx(expected)

    def test_paper_threshold_case(self):
        # "Coliseum" tag vs "Roman Colosseum" label: the famous near-miss
        assert jaro_winkler_ci("coliseum", "colosseum") >= 0.8
        assert jaro_winkler_ci("coliseum", "turin") < 0.8

    def test_case_insensitive_variant(self):
        assert jaro_winkler_ci("TURIN", "turin") == 1.0


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein("abc", "abc") == 0

    def test_empty(self):
        assert levenshtein("", "abc") == 3

    def test_classic_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_single_substitution(self):
        assert levenshtein("turin", "turim") == 1

    def test_normalized_range(self):
        assert normalized_levenshtein("", "") == 1.0
        assert normalized_levenshtein("abc", "abc") == 1.0
        assert normalized_levenshtein("abc", "xyz") == 0.0


class TestBestMatch:
    def test_picks_highest(self):
        candidate, score = best_match(
            "coliseum", ["Turin", "Colosseum", "Paris"]
        )
        assert candidate == "Colosseum"
        assert score > 0.8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            best_match("x", [])

    def test_tie_keeps_first(self):
        candidate, _ = best_match("ab", ["ab", "ab"])
        assert candidate == "ab"


_words = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu")),
    min_size=0, max_size=12,
)


@given(_words, _words)
def test_jaro_bounds_and_symmetry(a, b):
    score = jaro(a, b)
    assert 0.0 <= score <= 1.0
    assert score == pytest.approx(jaro(b, a))


@given(_words, _words)
def test_jaro_winkler_at_least_jaro(a, b):
    assert jaro_winkler(a, b) >= jaro(a, b) - 1e-12


@given(_words)
def test_identity_is_one(word):
    assert jaro_winkler(word, word) == (1.0 if word else 0.0) or word == ""


@given(_words, _words, _words)
def test_levenshtein_triangle(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@given(_words, _words)
def test_levenshtein_symmetry_and_bounds(a, b):
    d = levenshtein(a, b)
    assert d == levenshtein(b, a)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))
