"""Sindice resolver — a cross-dataset semantic web index.

Sindice indexed the whole semantic web; its results "may refer to
various ontologies, e.g. Geonames or DBpedia or others" (§2.2.2) —
which is precisely why the paper attaches priorities to graphs rather
than resolvers. This simulation indexes every label-bearing resource in
all configured graphs and — faithfully to the raw index behaviour — does
*not* follow redirects or skip disambiguation pages. Those papers cuts
are the downstream filter's job.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..nlp.similarity import jaro_winkler_ci
from ..rdf.graph import Graph
from ..rdf.namespace import GN, RDFS
from ..rdf.terms import Literal
from ..sparql.fulltext import FullTextIndex
from .base import Candidate, Memo, Resolver

#: Label-ish predicates Sindice's keyword index covers.
_LABEL_PREDICATES = (RDFS.label, GN.name, GN.alternateName)


class SindiceResolver(Resolver):
    """Keyword index across several graphs at once."""

    name = "sindice"
    max_candidates = 10

    def __init__(self, graphs: Iterable[Graph]) -> None:
        self.graphs = list(graphs)
        self._index = FullTextIndex()
        self._labels = {}
        for graph in self.graphs:
            for predicate in _LABEL_PREDICATES:
                for s, _, o in graph.triples((None, predicate, None)):
                    if not isinstance(o, Literal):
                        continue
                    self._index.add(s, o.lexical)
                    self._labels.setdefault(s, []).append(o.lexical)
        self._index.tokens()  # built now: a search only reads
        self._memo = Memo()

    def resolve_term(
        self, word: str, language: Optional[str] = None
    ) -> List[Candidate]:
        return list(
            self._memo.get(self._resolve_term, word, language)
        )

    def _resolve_term(
        self, word: str, language: Optional[str]
    ) -> List[Candidate]:
        candidates: List[Candidate] = []
        for subject in self._index.search(word):
            labels = self._labels.get(subject, [])
            if not labels:
                continue
            label = max(labels, key=lambda l: jaro_winkler_ci(word, l))
            similarity = jaro_winkler_ci(word, label)
            candidates.append(
                Candidate(
                    resource=subject,
                    label=label,
                    score=round(0.6 * similarity, 4),
                    resolver=self.name,
                    word=word,
                    language=language,
                )
            )
        candidates.sort(key=lambda c: (-c.score, str(c.resource)))
        return candidates[: self.max_candidates]
