"""User-assisted disambiguation (paper §2.2.2 / conclusion).

"Whilst the disambiguation task is humanly solved in the case of
semantic search and browsing of content where a dynamic user interface
is proposed to the user for selection, our goal is to automatically
select and discriminate the most appropriate candidate resource." and
"user evaluations are planned to evaluate and improve our disambiguation
algorithms."

This module is that loop: when the automatic filter ends AMBIGUOUS, the
UI presents the survivors; the user's pick is recorded, and recorded
picks act as a learned prior that resolves the same (word → resource)
ambiguity automatically next time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..rdf.terms import URIRef
from ..resolvers.base import Candidate
from .filtering import FilterOutcome, Reason


@dataclass(frozen=True)
class Choice:
    """One recorded human pick."""

    word: str
    resource: URIRef


@dataclass
class DisambiguationPrompt:
    """What the dynamic UI shows for an ambiguous word."""

    word: str
    options: List[Candidate]

    def option_labels(self) -> List[str]:
        return [
            f"{c.label} ({c.graph})" for c in self.options
        ]


class UserAssistedDisambiguator:
    """Collects human picks and replays them as an automatic prior."""

    def __init__(self) -> None:
        #: word(lower) → Counter of picked resources
        self._history: Dict[str, Counter] = {}
        self.choices: List[Choice] = []

    # ------------------------------------------------------------------
    def prompt_for(self, outcome: FilterOutcome
                   ) -> Optional[DisambiguationPrompt]:
        """The UI prompt for an AMBIGUOUS outcome (None otherwise)."""
        if outcome.reason is not Reason.AMBIGUOUS:
            return None
        return DisambiguationPrompt(outcome.word,
                                    list(outcome.survivors))

    def record_choice(self, word: str, resource: URIRef) -> None:
        """The user picked ``resource`` for ``word``."""
        counter = self._history.setdefault(word.lower(), Counter())
        counter[resource] += 1
        self.choices.append(Choice(word, resource))

    # ------------------------------------------------------------------
    def learned_resource(self, word: str) -> Optional[URIRef]:
        """The dominant past pick for ``word``: one picked strictly more
        often than any other resource (a single pick suffices).
        """
        counter = self._history.get(word.lower())
        if not counter:
            return None
        ranked = counter.most_common(2)
        best, best_count = ranked[0]
        if len(ranked) > 1 and ranked[1][1] == best_count:
            return None  # tied: still ambiguous
        return best

    def resolve(self, outcome: FilterOutcome) -> FilterOutcome:
        """Upgrade an AMBIGUOUS outcome using the learned prior, when
        the learned resource is among the survivors."""
        if outcome.reason is not Reason.AMBIGUOUS:
            return outcome
        learned = self.learned_resource(outcome.word)
        if learned is None:
            return outcome
        for candidate in outcome.survivors:
            if candidate.resource == learned:
                return FilterOutcome(
                    word=outcome.word,
                    reason=Reason.ANNOTATED,
                    chosen=candidate,
                    survivors=outcome.survivors,
                    discarded=outcome.discarded,
                )
        return outcome

    # ------------------------------------------------------------------
    def accuracy_against(
        self, gold: Dict[str, URIRef]
    ) -> Tuple[int, int]:
        """(correct, total) of learned priors vs. a gold mapping — the
        'user evaluations' the paper plans."""
        correct = 0
        total = 0
        for word, expected in gold.items():
            learned = self.learned_resource(word)
            if learned is None:
                continue
            total += 1
            if learned == expected:
                correct += 1
        return correct, total
