"""Semantic filtering and disambiguation (paper §2.2.2).

The stage after brokering, reproduced rule by rule:

1. **Graph priority** — "resources referring to Geonames graph have
   higher priority than the ones related to DBpedia, followed by Evri
   types of resources. At this time all candidate resources pointing to
   other graphs are discarded." Priorities attach to graphs, not
   resolvers, because e.g. Sindice returns candidates from several
   ontologies.
2. **Validation** — per ontology: the resource must have an actual
   binding in its graph (the paper's SPARQL ASK against the endpoint),
   and candidates carrying the ``disambiguates`` property are discarded
   (skipped for candidates from the DBpedia resolver, which already
   performs that check at the source).
3. **String similarity** — candidates with case-insensitive Jaro-Winkler
   similarity to the original word/lemma below 0.8 are discarded "unless
   their DBpedia score is maximum".
4. **Single-candidate rule** — automatic annotation happens only when,
   within the highest-priority graph that still has candidates, exactly
   one candidate remains — "to avoid ambiguity and limit errors".

Every rule is a constructor knob so the ablation benchmarks can switch
them individually.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..lod.datasets import LodCorpus
from ..lod.dbpedia import is_disambiguation_page
from ..nlp.similarity import jaro_winkler_ci
from ..obs import get_registry
from ..rdf.graph import Graph
from ..resolvers.base import (
    Candidate,
    GRAPH_DBPEDIA,
    GRAPH_EVRI,
    GRAPH_GEONAMES,
    Memo,
)
from ..resolvers.evri import build_evri_graph

#: The paper's priority order, highest first.
DEFAULT_PRIORITY: Tuple[str, ...] = (
    GRAPH_GEONAMES,
    GRAPH_DBPEDIA,
    GRAPH_EVRI,
)

#: The empirically-chosen similarity cutoff (paper §2.2.2).
DEFAULT_JW_THRESHOLD = 0.8


class Reason(enum.Enum):
    """Why a word did or did not get an automatic annotation."""

    ANNOTATED = "annotated"
    NO_CANDIDATES = "no-candidates"
    ALL_DISCARDED = "all-discarded"
    AMBIGUOUS = "ambiguous"


@dataclass
class FilterOutcome:
    """The filter's verdict for one word."""

    word: str
    reason: Reason
    chosen: Optional[Candidate] = None
    survivors: List[Candidate] = field(default_factory=list)
    discarded: List[Tuple[Candidate, str]] = field(default_factory=list)

    @property
    def annotated(self) -> bool:
        return self.reason is Reason.ANNOTATED


class SemanticFilter:
    """Configurable implementation of the four filtering rules."""

    def __init__(
        self,
        corpus: LodCorpus,
        priority: Sequence[str] = DEFAULT_PRIORITY,
        jw_threshold: float = DEFAULT_JW_THRESHOLD,
        validate: bool = True,
        use_priority: bool = True,
        jw_escape_on_max_dbpedia_score: bool = True,
        evri_graph: Optional[Graph] = None,
    ) -> None:
        self.corpus = corpus
        self.priority = tuple(priority)
        self.jw_threshold = jw_threshold
        self.validate = validate
        self.use_priority = use_priority
        self.jw_escape_on_max_dbpedia_score = jw_escape_on_max_dbpedia_score
        self._graphs: Dict[str, Graph] = {
            GRAPH_DBPEDIA: corpus.dbpedia,
            GRAPH_GEONAMES: corpus.geonames,
            GRAPH_EVRI: evri_graph
            if evri_graph is not None
            else build_evri_graph(),
        }
        # the verdict is a pure function of (word, candidates) over
        # the immutable graphs and the settings above
        self._outcomes = Memo()

    # ------------------------------------------------------------------
    def filter_word(
        self, word: str, candidates: Sequence[Candidate]
    ) -> FilterOutcome:
        """Apply all rules to one word's candidate list: once per
        distinct ``(word, candidates)`` for this filter, a fresh
        outcome (own ``survivors`` and ``discarded`` lists) per call."""
        found = self._outcomes.get(
            self._apply_rules, word, tuple(candidates)
        )
        outcome = FilterOutcome(
            found.word,
            found.reason,
            found.chosen,
            list(found.survivors),
            list(found.discarded),
        )
        get_registry().counter(
            "repro_filter_outcomes_total",
            "Filter verdicts by reason (Figure 1 stages 3-4).",
        ).labels(reason=outcome.reason.value).inc()
        return outcome

    def _apply_rules(
        self, word: str, candidates: Sequence[Candidate]
    ) -> FilterOutcome:
        if not candidates:
            return FilterOutcome(word, Reason.NO_CANDIDATES)

        survivors: List[Candidate] = []
        discarded: List[Tuple[Candidate, str]] = []
        seen_resources = set()

        for candidate in candidates:
            candidate = self._normalize(candidate)
            verdict = self._discard_reason(word, candidate)
            if verdict is not None:
                discarded.append((candidate, verdict))
            elif candidate.resource in seen_resources:
                discarded.append((candidate, "duplicate after redirect"))
            else:
                seen_resources.add(candidate.resource)
                survivors.append(candidate)

        if not survivors:
            return FilterOutcome(
                word, Reason.ALL_DISCARDED, discarded=discarded
            )

        if self.use_priority:
            top_graph = min(
                (c.graph for c in survivors),
                key=lambda g: self.priority.index(g),
            )
            top = [c for c in survivors if c.graph == top_graph]
        else:
            top = survivors

        if len(top) == 1:
            return FilterOutcome(
                word,
                Reason.ANNOTATED,
                chosen=top[0],
                survivors=survivors,
                discarded=discarded,
            )
        return FilterOutcome(
            word, Reason.AMBIGUOUS, survivors=survivors,
            discarded=discarded,
        )

    # ------------------------------------------------------------------
    def _normalize(self, candidate: Candidate) -> Candidate:
        """Resolve DBpedia redirects for candidates whose resolver did
        not already do so (part of the paper's validation: redirections
        are followed so redirect pages never compete with their
        targets)."""
        if not self.validate or candidate.graph != GRAPH_DBPEDIA:
            return candidate
        from ..lod.dbpedia import follow_redirect
        from dataclasses import replace

        target = follow_redirect(self.corpus.dbpedia, candidate.resource)
        if target == candidate.resource:
            return candidate
        return replace(candidate, resource=target)

    def _discard_reason(
        self, word: str, candidate: Candidate
    ) -> Optional[str]:
        """None if the candidate survives, else a human-readable reason."""
        if self.use_priority and candidate.graph not in self.priority:
            return f"graph {candidate.graph!r} not in priority list"

        if self.validate:
            graph = self._graphs.get(candidate.graph)
            if graph is not None and not graph.resource_exists(
                candidate.resource
            ):
                return "no binding in source graph"
            if (
                candidate.graph == GRAPH_DBPEDIA
                and candidate.resolver != "dbpedia"
                and is_disambiguation_page(
                    self.corpus.dbpedia, candidate.resource
                )
            ):
                return "disambiguation page"

        similarity = jaro_winkler_ci(word, candidate.label)
        if similarity < self.jw_threshold:
            is_max_dbpedia = (
                candidate.resolver == "dbpedia" and candidate.score >= 1.0
            )
            if not (self.jw_escape_on_max_dbpedia_score and is_max_dbpedia):
                return (
                    f"jaro-winkler {similarity:.2f} < "
                    f"{self.jw_threshold:.2f}"
                )
        return None
