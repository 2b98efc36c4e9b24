"""DBpedia resolver — SPARQL-based lookup with redirects and scoring.

The paper replaced the DBpedia Lookup web service with direct SPARQL
"to benefit from the full-text support, as well as additional filters
e.g. based on language, entity type & native scoring. The query also
follows resource redirections to avoid returning disambiguation pages."
(§2.2.2). This resolver reproduces each of those behaviours over the
synthetic DBpedia graph:

* full-text label matching (``bif:contains`` semantics on labels),
* optional language and entity-type filters,
* redirect following,
* disambiguation pages skipped at the source (so the downstream filter's
  check is only needed for candidates from *other* resolvers),
* native scoring: exact-label match → 1.0, otherwise a blend of label
  similarity and a popularity proxy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..nlp.similarity import jaro_winkler_ci
from ..rdf.graph import Graph
from ..rdf.namespace import RDF, RDFS
from ..rdf.terms import Literal, URIRef
from ..sparql.fulltext import FullTextIndex
from ..lod.dbpedia import follow_redirect, is_disambiguation_page
from .base import Candidate, Memo, Resolver


class DBpediaResolver(Resolver):
    """Resolves (multi)words against DBpedia labels."""

    name = "dbpedia"
    max_candidates = 8

    def __init__(self, dbpedia: Graph) -> None:
        self.graph = dbpedia
        self._index = FullTextIndex.from_graph(
            dbpedia, predicates=[RDFS.label]
        )
        # popularity proxy: number of triples mentioning the resource
        self._popularity: Dict[URIRef, int] = {}
        for s, _, o in dbpedia:
            self._popularity[s] = self._popularity.get(s, 0) + 1
            if isinstance(o, URIRef):
                self._popularity[o] = self._popularity.get(o, 0) + 1
        self._max_popularity = max(self._popularity.values(), default=1)
        self._memo = Memo()

    def resolve_term(
        self,
        word: str,
        language: Optional[str] = None,
        entity_type: Optional[URIRef] = None,
    ) -> List[Candidate]:
        return list(self._memo.get(
            self._resolve_term, word, language, entity_type
        ))

    def _resolve_term(
        self,
        word: str,
        language: Optional[str],
        entity_type: Optional[URIRef],
    ) -> List[Candidate]:
        subjects = self._index.search(word)
        candidates: List[Candidate] = []
        seen: Set[URIRef] = set()
        for subject in subjects:
            resolved = follow_redirect(self.graph, subject)
            if resolved in seen:
                continue
            if is_disambiguation_page(self.graph, resolved):
                continue  # the paper: redirects avoid disambiguation pages
            if entity_type is not None and (
                resolved, RDF.type, entity_type
            ) not in self.graph:
                continue
            label = self._best_label(resolved, word, language)
            if label is None:
                continue
            seen.add(resolved)
            candidates.append(
                Candidate(
                    resource=resolved,
                    label=label[0],
                    score=self._score(resolved, word, label[0]),
                    resolver=self.name,
                    word=word,
                    language=label[1],
                )
            )
        candidates.sort(key=lambda c: (-c.score, str(c.resource)))
        return candidates[: self.max_candidates]

    # ------------------------------------------------------------------
    def _best_label(
        self, resource: URIRef, word: str, language: Optional[str]
    ) -> Optional[Tuple[str, Optional[str]]]:
        """Pick the label to report: prefer the requested language, then
        the label most similar to the queried word, then — as display
        labels are picked — the smallest language tag (or "") and
        lexical form, so a tie never falls to the graph's set order."""
        labels: List[Tuple[str, Optional[str]]] = [
            (obj.lexical, obj.lang)
            for obj in self.graph.objects(resource, RDFS.label)
            if isinstance(obj, Literal)
        ]
        if not labels:
            return None
        if language is not None:
            in_language = [l for l in labels if l[1] == language.lower()]
            if in_language:
                labels = in_language
        return min(labels, key=lambda item: (
            -jaro_winkler_ci(word, item[0]), item[1] or "", item[0]
        ))

    def _score(self, resource: URIRef, word: str, label: str) -> float:
        if word.lower() == label.lower():
            return 1.0  # "maximum DBpedia score" — the paper's escape hatch
        similarity = jaro_winkler_ci(word, label)
        popularity = (
            self._popularity.get(resource, 0) / self._max_popularity
        )
        return round(min(0.99, 0.8 * similarity + 0.19 * popularity), 4)
