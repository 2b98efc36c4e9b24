"""Morphological analysis — the FreeLing stand-in (paper §2.2.2).

The paper runs FreeLing, configured with the detected language, to obtain
lemmas with part-of-speech tags, keeps non-numeric NP (proper-noun)
lemmas with a score of at least 0.2, and notes FreeLing was chosen over
TreeTagger because it detects *multiword* lemmas. This module reproduces
those capabilities:

* multiword detection against a gazetteer (longest match wins),
* heuristic POS tagging (NP / NC / NUM / SW / W),
* rule-based lemmatization with per-language suffix rules + exceptions,
* an NP confidence score in [0, 1] so the pipeline's ``score >= 0.2``
  filter is meaningful. The scoring ladder:

  ====================================================  =====
  evidence                                              score
  ====================================================  =====
  gazetteer multiword                                   0.95
  merged run of mid-sentence capitalized tokens         0.90
  single mid-sentence capitalized token                 0.85
  all-caps acronym                                      0.70
  sentence-initial capitalized, unknown word            0.50
  sentence-initial capitalized, known common word       0.15
  sentence-initial capitalized stopword / lowercase     0.00
  ====================================================  =====

  Sentence-initial common words land *below* the paper's 0.2 threshold;
  unknown sentence-initial capitalized words stay above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .lexicon import (
    MULTIWORDS,
    common_words_for,
    lemma_exceptions_for,
)
from .stopwords import is_stopword
from .tokenizer import RawToken, tokenize

#: POS tags (EAGLES-like initials, as FreeLing uses).
POS_PROPER = "NP"   # proper noun
POS_COMMON = "NC"   # common noun / other content word
POS_NUMBER = "Z"    # number
POS_FUNCTION = "SW"  # stopword / function word
POS_WORD = "W"      # anything else


@dataclass(frozen=True)
class AnalyzedToken:
    """One analysis: surface form, lemma, POS tag and NP confidence."""

    form: str
    lemma: str
    pos: str
    np_score: float
    is_multiword: bool = False

    @property
    def is_proper_noun(self) -> bool:
        return self.pos == POS_PROPER


_SUFFIX_RULES: Dict[str, List[Tuple[str, str]]] = {
    # (suffix to strip, replacement), first match wins, applied to words
    # of length > len(suffix) + 2
    "en": [("ies", "y"), ("ches", "ch"), ("shes", "sh"), ("sses", "ss"),
           ("s", "")],
    "it": [("zioni", "zione"), ("ità", "ità"), ("chi", "co"),
           ("ghi", "go"), ("i", "o"), ("e", "a")],
    "fr": [("eaux", "eau"), ("aux", "al"), ("s", "")],
    "es": [("ciones", "ción"), ("es", ""), ("s", "")],
    "de": [("en", ""), ("er", ""), ("e", "")],
}


#: Tokens in the longest multiword of the gazetteer.
_MAX_MULTIWORD = max(len(key) for key in MULTIWORDS)

class MorphologicalAnalyzer:
    """Language-configured analyzer (as FreeLing is configured per run)."""

    def __init__(self, language: str = "en") -> None:
        self.language = language
        self._common = common_words_for(language)
        self._exceptions = lemma_exceptions_for(language)

    # ------------------------------------------------------------------
    def analyze(self, text: str) -> List[AnalyzedToken]:
        """Full analysis of ``text``: multiword merge, POS, lemma, score."""
        raw = tokenize(text)
        merged = self._merge_multiwords(raw)
        return [self._classify(item) for item in merged]

    def proper_nouns(
        self, text: str, min_score: float = 0.2
    ) -> List[AnalyzedToken]:
        """Non-numeric NP lemmas with ``np_score >= min_score`` — exactly
        the filtering step of the paper's pipeline."""
        return [
            token
            for token in self.analyze(text)
            if token.is_proper_noun and token.np_score >= min_score
        ]

    # ------------------------------------------------------------------
    # Multiword detection
    # ------------------------------------------------------------------
    def _merge_multiwords(
        self, raw: Sequence[RawToken]
    ) -> List[Tuple[RawToken, Optional[str], int]]:
        """Return (first_token, canonical_multiword_or_None, span_len)."""
        merged: List[Tuple[RawToken, Optional[str], int]] = []
        i = 0
        while i < len(raw):
            match: Optional[Tuple[str, int]] = None
            limit = min(_MAX_MULTIWORD, len(raw) - i)
            for span in range(limit, 1, -1):  # longest match first
                key = tuple(t.text.lower() for t in raw[i : i + span])
                if key in MULTIWORDS:
                    match = (MULTIWORDS[key], span)
                    break
            if match is not None:
                merged.append((raw[i], match[0], match[1]))
                i += match[1]
            else:
                # runs of adjacent mid-sentence capitalized tokens merge
                # into an ad-hoc multiword proper noun
                span = self._capitalized_run(raw, i)
                if span > 1:
                    form = " ".join(t.text for t in raw[i : i + span])
                    merged.append((raw[i], form, span))
                    i += span
                else:
                    merged.append((raw[i], None, 1))
                    i += 1
        return merged

    def _capitalized_run(self, raw: Sequence[RawToken], start: int) -> int:
        first = raw[start]
        if not first.is_capitalized or first.is_numeric:
            return 1
        if first.sentence_initial and (
            is_stopword(first.text, self.language)
            or first.text.lower() in self._common
        ):
            return 1
        span = 1
        while start + span < len(raw):
            token = raw[start + span]
            if (
                token.is_capitalized
                and not token.is_numeric
                and not token.sentence_initial
                and not is_stopword(token.text, self.language)
            ):
                span += 1
            else:
                break
        return span

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def _classify(
        self, item: Tuple[RawToken, Optional[str], int]
    ) -> AnalyzedToken:
        token, multiword, span = item
        if multiword is not None and span > 1:
            gazetteer = tuple(multiword.lower().split()) in {
                tuple(k) for k in MULTIWORDS
            } or any(
                " ".join(k) == multiword.lower() for k in MULTIWORDS
            )
            canonical_match = any(
                canonical == multiword for canonical in MULTIWORDS.values()
            )
            score = 0.95 if canonical_match else 0.9
            return AnalyzedToken(
                form=multiword,
                lemma=multiword,
                pos=POS_PROPER,
                np_score=score,
                is_multiword=True,
            )

        text = token.text
        lower = text.lower()
        if token.is_numeric:
            return AnalyzedToken(text, text, POS_NUMBER, 0.0)
        if is_stopword(lower, self.language):
            return AnalyzedToken(text, lower, POS_FUNCTION, 0.0)
        if token.is_all_caps:
            return AnalyzedToken(text, text, POS_PROPER, 0.7)
        if token.is_capitalized:
            if not token.sentence_initial:
                return AnalyzedToken(text, text, POS_PROPER, 0.85)
            if lower in self._common:
                return AnalyzedToken(
                    text, self.lemmatize(lower), POS_PROPER, 0.15
                )
            return AnalyzedToken(text, text, POS_PROPER, 0.5)
        if lower in self._common:
            return AnalyzedToken(text, self.lemmatize(lower), POS_COMMON, 0.0)
        return AnalyzedToken(text, self.lemmatize(lower), POS_WORD, 0.0)

    # ------------------------------------------------------------------
    # Lemmatization
    # ------------------------------------------------------------------
    def lemmatize(self, word: str) -> str:
        """Rule-based lemma: exceptions first, then suffix rules."""
        lower = word.lower()
        if lower in self._exceptions:
            return self._exceptions[lower]
        for suffix, replacement in _SUFFIX_RULES.get(self.language, ()):
            if lower.endswith(suffix) and len(lower) > len(suffix) + 2:
                candidate = lower[: -len(suffix)] + replacement
                return candidate
        return lower
