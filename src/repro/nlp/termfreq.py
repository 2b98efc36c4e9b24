"""Term-frequency based relevant-word extraction.

The paper (§2.2.2): "At this stage, we thus use term frequency to further
process the title and extract other potential relevant words" — a
fallback that surfaces content words beyond the proper nouns. We rank
non-stopword, non-numeric tokens by frequency (ties broken by length,
longer first, then alphabetically) and return the top-k.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional

from .stopwords import is_stopword
from .tokenizer import tokenize


def relevant_words(
    text: str,
    language: str = "en",
    top_k: int = 3,
    exclude: Optional[set] = None,
) -> List[str]:
    """Top-``top_k`` frequent content words of ``text`` (lower-cased),
    each at least three letters long.

    ``exclude`` removes words already covered (e.g. by NP extraction) so
    the fallback only adds *new* candidates.
    """
    excluded = {w.lower() for w in (exclude or set())}
    counts: Counter = Counter()
    for token in tokenize(text):
        word = token.text.lower()
        if len(word) < 3:
            continue
        if token.is_numeric:
            continue
        if is_stopword(word, language):
            continue
        if word in excluded:
            continue
        counts[word] += 1
    ranked = sorted(
        counts.items(), key=lambda item: (-item[1], -len(item[0]), item[0])
    )
    return [word for word, _ in ranked[:top_k]]
