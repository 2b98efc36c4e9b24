"""N-gram based language identification (Cavnar & Trenkle 1994).

The paper identifies title language with PHP's ``Text_LanguageDetect``
([3]), itself an implementation of Cavnar & Trenkle's rank-order n-gram
classifier ([4]). The algorithm:

1. build a profile — the frequency-ranked list of character 1..N-grams —
   for each training language;
2. profile the input text the same way;
3. score each language by the sum of rank displacements ("out-of-place"
   measure) between the two profiles; the lowest total wins.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .profiles import SAMPLE_TEXT

_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

#: Maximum n-gram length and profile size (Cavnar & Trenkle use 1..5/300).
MAX_NGRAM = 3
PROFILE_SIZE = 300


def _ngrams(text: str, max_n: int = MAX_NGRAM) -> Iterable[str]:
    """Character n-grams of padded words, lengths 1..max_n."""
    for word in _WORD_RE.findall(text.lower()):
        padded = f"_{word}_"
        for n in range(1, max_n + 1):
            for i in range(len(padded) - n + 1):
                yield padded[i : i + n]


def build_profile(text: str) -> List[str]:
    """The :data:`PROFILE_SIZE` most frequent n-grams, most frequent
    first."""
    counts = Counter(_ngrams(text))
    return [
        gram
        for gram, _ in sorted(
            counts.items(), key=lambda item: (-item[1], item[0])
        )[:PROFILE_SIZE]
    ]


@dataclass(frozen=True)
class Detection:
    """A detection outcome: language code plus a confidence in [0, 1]."""

    language: str
    confidence: float


class LanguageDetector:
    """Rank-order n-gram classifier over a fixed set of languages."""

    def __init__(self, samples: Optional[Dict[str, str]] = None) -> None:
        samples = samples if samples is not None else SAMPLE_TEXT
        self._profiles: Dict[str, Dict[str, int]] = {}
        for language, text in samples.items():
            profile = build_profile(text)
            self._profiles[language] = {
                gram: rank for rank, gram in enumerate(profile)
            }

    @property
    def languages(self) -> Tuple[str, ...]:
        return tuple(sorted(self._profiles))

    def rank(self, text: str) -> List[Detection]:
        """All languages ranked best-first with normalized confidence."""
        document = build_profile(text)
        if not document:
            return []
        max_penalty = PROFILE_SIZE
        scores: List[Tuple[str, float]] = []
        for language, profile in self._profiles.items():
            total = 0
            for rank, gram in enumerate(document):
                if gram in profile:
                    total += abs(profile[gram] - rank)
                else:
                    total += max_penalty
            worst = max_penalty * len(document)
            scores.append((language, 1.0 - total / worst))
        scores.sort(key=lambda item: (-item[1], item[0]))
        return [Detection(lang, conf) for lang, conf in scores]

    def detect(self, text: str) -> str:
        """The most likely language code (English for empty input)."""
        ranking = self.rank(text)
        if not ranking:
            return "en"
        return ranking[0].language

    def detect_with_confidence(self, text: str) -> Detection:
        """The most likely language with its confidence (English with
        none for empty input)."""
        ranking = self.rank(text)
        if not ranking:
            return Detection("en", 0.0)
        return ranking[0]


_default_detector: Optional[LanguageDetector] = None


def default_detector() -> LanguageDetector:
    """Shared detector over the built-in profiles (lazily constructed)."""
    global _default_detector
    if _default_detector is None:
        _default_detector = LanguageDetector()
    return _default_detector


def detect_language(text: str) -> str:
    """Module-level convenience wrapper over :func:`default_detector`."""
    return default_detector().detect(text)
