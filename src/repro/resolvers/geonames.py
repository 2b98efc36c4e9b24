"""Geonames resolver — location lookups over the Geonames graph.

Returns city-level features matching a word against ``gn:name`` or any
``gn:alternateName`` (so "Torino" finds the feature whose canonical name
is "Turin"). Population is the popularity proxy, mirroring the real
Geonames search ranking.

The graph is read once, in ``__init__``, into a name table: lowered name
→ the matching features' ``(resource, label, score)``, best first. The
corpus is immutable by convention (:func:`repro.lod.build_lod_corpus`),
and the table is never written after ``__init__``, so worker threads
share one resolver; its term memo takes its own lock.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..rdf.graph import Graph
from ..rdf.namespace import GN
from ..rdf.terms import Literal, Term
from .base import Candidate, Memo, Resolver

#: One table entry: (feature, display label, score).
NameEntry = Tuple[Term, str, float]


class GeonamesResolver(Resolver):
    """Resolves (multi)words against Geonames features."""

    name = "geonames"
    max_candidates = 5

    def __init__(self, geonames: Graph) -> None:
        self.graph = geonames
        self._max_population = 1
        for _, _, obj in geonames.triples((None, GN.population, None)):
            if isinstance(obj, Literal) and obj.is_numeric:
                self._max_population = max(
                    self._max_population, int(obj.value)
                )
        table: Dict[str, List[NameEntry]] = {}
        for feature in set(geonames.subjects(GN.featureClass, GN.P)):
            # each lowered name once, with its first spelling: the label
            # when the feature has no literal gn:name
            spellings: Dict[str, str] = {}
            for predicate in (GN.name, GN.alternateName):
                for _, _, obj in geonames.triples((feature, predicate, None)):
                    if isinstance(obj, Literal):
                        spellings.setdefault(obj.lexical.lower(), obj.lexical)
            population = geonames.value(feature, GN.population)
            popularity = 0.0
            if isinstance(population, Literal) and population.is_numeric:
                popularity = int(population.value) / self._max_population
            score = round(min(1.0, 0.85 + 0.15 * popularity), 4)
            canonical = geonames.value(feature, GN.name)
            for key, spelling in spellings.items():
                label = (
                    canonical.lexical
                    if isinstance(canonical, Literal) else spelling
                )
                table.setdefault(key, []).append((feature, label, score))
        self._names: Dict[str, Tuple[NameEntry, ...]] = {
            key: tuple(sorted(entries, key=lambda e: (-e[2], str(e[0]))))
            for key, entries in table.items()
        }
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
        return [
            Candidate(
                resource=feature,
                label=label,
                score=score,
                resolver=self.name,
                word=word,
                entity_type="place",
                language=language,
            )
            for feature, label, score in self._names.get(
                word.lower(), ()
            )[: self.max_candidates]
        ]
