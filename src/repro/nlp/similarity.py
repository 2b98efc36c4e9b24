"""String similarity measures.

The paper's final annotation check (§2.2.2) discards candidate resources
whose Jaro-Winkler distance to the original word/lemma is below 0.8
(unless the candidate carries the maximum DBpedia score). This module
implements Jaro, Jaro-Winkler and Levenshtein exactly as in the classic
definitions so that threshold is meaningful.
"""

from __future__ import annotations

from typing import Sequence


def jaro(s1: str, s2: str) -> float:
    """Jaro similarity in [0, 1]."""
    if s1 == s2:
        return 1.0
    len1, len2 = len(s1), len(s2)
    if len1 == 0 or len2 == 0:
        return 0.0
    match_window = max(len1, len2) // 2 - 1
    if match_window < 0:
        match_window = 0

    s1_matches = [False] * len1
    s2_matches = [False] * len2
    matches = 0
    for i, ch in enumerate(s1):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len2)
        for j in range(start, end):
            if s2_matches[j] or s2[j] != ch:
                continue
            s1_matches[i] = True
            s2_matches[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0

    transpositions = 0
    k = 0
    for i in range(len1):
        if not s1_matches[i]:
            continue
        while not s2_matches[k]:
            k += 1
        if s1[i] != s2[k]:
            transpositions += 1
        k += 1
    transpositions //= 2

    return (
        matches / len1
        + matches / len2
        + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(s1: str, s2: str) -> float:
    """Jaro-Winkler similarity in [0, 1].

    Boosts the Jaro score for strings sharing a common prefix (up to
    four characters), with the standard scale of 0.1.
    """
    base = jaro(s1, s2)
    prefix = 0
    for c1, c2 in zip(s1, s2):
        if c1 != c2 or prefix >= 4:
            break
        prefix += 1
    return base + prefix * 0.1 * (1.0 - base)


def jaro_winkler_ci(s1: str, s2: str) -> float:
    """Case-insensitive Jaro-Winkler — what the annotator uses, since
    resolvers return labels with their own capitalization."""
    return jaro_winkler(s1.lower(), s2.lower())


def levenshtein(s1: str, s2: str) -> int:
    """Classic edit distance (insert/delete/substitute, all cost 1)."""
    if s1 == s2:
        return 0
    if not s1:
        return len(s2)
    if not s2:
        return len(s1)
    if len(s1) < len(s2):
        s1, s2 = s2, s1
    previous = list(range(len(s2) + 1))
    for i, c1 in enumerate(s1, start=1):
        current = [i]
        for j, c2 in enumerate(s2, start=1):
            cost = 0 if c1 == c2 else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1,
                    previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def normalized_levenshtein(s1: str, s2: str) -> float:
    """Levenshtein similarity in [0, 1] (1 = identical)."""
    if not s1 and not s2:
        return 1.0
    return 1.0 - levenshtein(s1, s2) / max(len(s1), len(s2))


def best_match(target: str, candidates: Sequence[str]) -> tuple:
    """Return ``(candidate, score)`` with the highest case-insensitive
    Jaro-Winkler similarity to ``target`` (ties keep the first)."""
    if not candidates:
        raise ValueError("candidates must not be empty")
    best = candidates[0]
    best_score = jaro_winkler_ci(target, best)
    for candidate in candidates[1:]:
        score = jaro_winkler_ci(target, candidate)
        if score > best_score:
            best, best_score = candidate, score
    return best, best_score
