"""Zemanta resolver — full-text content suggestion.

Zemanta suggested related links (mostly Wikipedia/DBpedia) for a whole
text. The simulation scans the title for DBpedia labels — including
labels of redirect pages, which is how "Coliseum" in a title surfaces
the Colosseum — and returns the *redirect-source* resource, leaving
redirect resolution and validation to the downstream filter (unlike the
DBpedia resolver, Zemanta is a third party that does not clean up for
us).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..rdf.graph import Graph
from ..rdf.namespace import RDFS
from ..rdf.terms import Literal, URIRef
from .base import Candidate, Resolver


class ZemantaResolver(Resolver):
    """Suggests DBpedia resources whose label occurs in the text."""

    name = "zemanta"
    max_candidates = 8

    def __init__(self, dbpedia: Graph) -> None:
        self.graph = dbpedia
        # label (lower, space-normalized) → resources carrying it
        self._by_label: Dict[str, List[Tuple[URIRef, str]]] = {}
        for s, _, o in dbpedia.triples((None, RDFS.label, None)):
            if not isinstance(o, Literal):
                continue
            key = " ".join(o.lexical.lower().split())
            bucket = self._by_label.setdefault(key, [])
            if (s, o.lexical) not in bucket:
                bucket.append((s, o.lexical))

    def resolve_term(
        self, word: str, language: Optional[str] = None
    ) -> List[Candidate]:
        return self._lookup(word)

    def resolve_text(
        self, text: str, language: Optional[str] = None
    ) -> List[Candidate]:
        lowered = f" {' '.join(text.lower().split())} "
        candidates: List[Candidate] = []
        seen = set()
        for key, resources in self._by_label.items():
            if f" {key} " not in lowered:
                continue
            for resource, label in resources:
                if resource in seen:
                    continue
                seen.add(resource)
                candidates.append(
                    Candidate(
                        resource=resource,
                        label=label,
                        # longer label matches are stronger signals
                        score=round(
                            min(0.9, 0.5 + 0.1 * len(key.split())), 4
                        ),
                        resolver=self.name,
                        word=label,
                    )
                )
        candidates.sort(key=lambda c: (-c.score, str(c.resource)))
        return candidates[: self.max_candidates]

    def _lookup(self, word: str) -> List[Candidate]:
        key = " ".join(word.lower().split())
        candidates = [
            Candidate(
                resource=resource,
                label=label,
                score=0.65,
                resolver=self.name,
                word=word,
            )
            for resource, label in self._by_label.get(key, [])
        ]
        candidates.sort(key=lambda c: str(c.resource))
        return candidates[: self.max_candidates]
