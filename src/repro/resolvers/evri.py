"""Evri resolver — typed named-entity resolution with full-text support.

Evri was a commercial entity-resolution service returning typed entities
(person / place / organization / concept). The paper extended SMOB's
resolver framework to it and used it as one of the full-text resolvers
that "benefit from the original context (the whole title) to help
disambiguation."

The simulation maintains its own entity catalog (minted under the
``evrir:`` namespace, linked to DBpedia via ``owl:sameAs``) built from
the synthetic world: people, monuments and cities, each with an entity
type. Full-text resolution scans the title for catalog entity names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..nlp.similarity import jaro_winkler_ci
from ..rdf.graph import Graph
from ..rdf.namespace import DBPR, EVRI, EVRIR, OWL, RDF, RDFS
from ..rdf.terms import Literal, URIRef
from ..lod.world import CITIES, PEOPLE, POIS
from .base import Candidate, Resolver


@dataclass(frozen=True)
class _EvriEntity:
    key: str
    names: Tuple[str, ...]
    entity_type: str  # person | place | organization | concept
    dbpedia_key: Optional[str]


def _default_catalog() -> List[_EvriEntity]:
    entities: List[_EvriEntity] = []
    for person in PEOPLE:
        entities.append(
            _EvriEntity(
                key=person.key,
                names=tuple(person.labels.values()),
                entity_type="person",
                dbpedia_key=person.key,
            )
        )
    for city in CITIES:
        entities.append(
            _EvriEntity(
                key=city.key,
                names=tuple(city.labels.values()),
                entity_type="place",
                dbpedia_key=city.key,
            )
        )
    for poi in POIS:
        if not poi.in_dbpedia:
            continue
        entities.append(
            _EvriEntity(
                key=poi.key,
                names=tuple(poi.labels.values()),
                entity_type="place",
                dbpedia_key=poi.key,
            )
        )
    return entities


def build_evri_graph(
    catalog: Optional[List[_EvriEntity]] = None,
) -> Graph:
    """The Evri entity graph (evri-typed resources + sameAs links)."""
    g = Graph(URIRef("http://www.evri.com"))
    for entity in catalog if catalog is not None else _default_catalog():
        resource = EVRIR[entity.key]
        g.add((resource, RDF.type, EVRI[entity.entity_type.capitalize()]))
        for name in entity.names:
            g.add((resource, RDFS.label, Literal(name)))
        if entity.dbpedia_key is not None:
            g.add((resource, OWL.sameAs, DBPR[entity.dbpedia_key]))
    return g


class EvriResolver(Resolver):
    """Typed entity resolution with term and full-text modes."""

    name = "evri"

    def __init__(
        self,
        catalog: Optional[List[_EvriEntity]] = None,
        max_candidates: int = 5,
    ) -> None:
        self.catalog = catalog if catalog is not None else _default_catalog()
        self.max_candidates = max_candidates
        self._by_token: Dict[str, List[_EvriEntity]] = {}
        for entity in self.catalog:
            for name in entity.names:
                for token in name.lower().split():
                    self._by_token.setdefault(token, [])
                    if entity not in self._by_token[token]:
                        self._by_token[token].append(entity)

    def resolve_term(
        self, word: str, language: Optional[str] = None
    ) -> List[Candidate]:
        tokens = word.lower().split()
        if not tokens:
            return []
        pool = self._by_token.get(tokens[0], [])
        candidates: List[Candidate] = []
        for entity in pool:
            label, similarity = self._best_name(entity, word)
            if similarity < 0.6:
                continue
            candidates.append(self._candidate(entity, label, word,
                                              similarity))
        candidates.sort(key=lambda c: (-c.score, str(c.resource)))
        return candidates[: self.max_candidates]

    def resolve_text(
        self, text: str, language: Optional[str] = None
    ) -> List[Candidate]:
        """Scan the whole title for catalog entity names (the original
        context helps: multi-token names match even when NP extraction
        split them)."""
        lowered = f" {' '.join(text.lower().split())} "
        candidates: List[Candidate] = []
        seen = set()
        for entity in self.catalog:
            for name in entity.names:
                needle = f" {name.lower()} "
                if needle in lowered and entity.key not in seen:
                    seen.add(entity.key)
                    candidates.append(
                        self._candidate(entity, name, name, 1.0)
                    )
                    break
        candidates.sort(key=lambda c: (-c.score, str(c.resource)))
        return candidates[: self.max_candidates]

    # ------------------------------------------------------------------
    def _best_name(
        self, entity: _EvriEntity, word: str
    ) -> Tuple[str, float]:
        best = entity.names[0]
        best_similarity = self._name_similarity(word, best)
        for name in entity.names[1:]:
            similarity = self._name_similarity(word, name)
            if similarity > best_similarity:
                best, best_similarity = name, similarity
        return best, best_similarity

    @staticmethod
    def _name_similarity(word: str, name: str) -> float:
        """Whole-name similarity, with credit for matching one token of a
        multi-token entity name ("Gaudí" → "Antoni Gaudí")."""
        similarity = jaro_winkler_ci(word, name)
        if word.lower() in name.lower().split():
            similarity = max(similarity, 0.8)
        return similarity

    def _candidate(
        self, entity: _EvriEntity, label: str, word: str, similarity: float
    ) -> Candidate:
        return Candidate(
            resource=EVRIR[entity.key],
            label=label,
            score=round(0.7 * similarity, 4),
            resolver=self.name,
            word=word,
            entity_type=entity.entity_type,
        )
