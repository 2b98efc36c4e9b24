"""The vocabulary index the linters check terms against.

The paper's retrieval surface only ever touches a closed set of
predicates and classes: the ontology fragments (:mod:`repro.lod.ontology`),
the terms the D2R mapping emits (:mod:`repro.platform.vocab`), the
predicates observable in the LOD corpus, and a few annotation-pipeline
predicates. :class:`VocabularyIndex` collects them and answers "is this
term published?" plus "what is the nearest published term?" — the latter
with the same case-insensitive Jaro-Winkler measure (threshold 0.8) the
annotation pipeline itself uses (§2.2.2).
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

from ..nlp.similarity import jaro_winkler_ci
from ..rdf.namespace import RDF, RDFS
from ..rdf.terms import URIRef

#: Jaro-Winkler score below which a suggestion is considered noise —
#: deliberately the same threshold as the annotation pipeline's final
#: similarity check.
SUGGESTION_THRESHOLD = 0.8

_RDF_TYPE = str(RDF.type)
_SUBCLASS = str(RDFS.subClassOf)
_DOMAIN = str(RDFS.domain)
_RANGE = str(RDFS.range)


def _local_name(iri: str) -> str:
    for sep in ("#", "/"):
        if sep in iri:
            return iri.rsplit(sep, 1)[1]
    return iri


class VocabularyIndex:
    """Known predicates and classes, with nearest-term suggestions."""

    def __init__(
        self,
        predicates: Iterable[str] = (),
        classes: Iterable[str] = (),
    ) -> None:
        self.predicates: Set[str] = {str(p) for p in predicates}
        self.classes: Set[str] = {str(c) for c in classes}
        # rdf:type is implied by the 'a' shorthand everywhere
        self.predicates.add(_RDF_TYPE)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def harvest_graph(self, graph) -> "VocabularyIndex":
        """Add every predicate/class observable in ``graph``.

        Classes are objects of ``rdf:type``, both sides of
        ``rdfs:subClassOf`` and objects of ``rdfs:domain``/``rdfs:range``;
        subjects of ``rdfs:domain``/``rdfs:range`` are predicates.
        """
        for s, p, o in graph:
            p_str = str(p)
            self.predicates.add(p_str)
            if p_str == _RDF_TYPE and isinstance(o, URIRef):
                self.classes.add(str(o))
            elif p_str == _SUBCLASS:
                if isinstance(s, URIRef):
                    self.classes.add(str(s))
                if isinstance(o, URIRef):
                    self.classes.add(str(o))
            elif p_str in (_DOMAIN, _RANGE):
                if isinstance(s, URIRef):
                    self.predicates.add(str(s))
                if isinstance(o, URIRef):
                    self.classes.add(str(o))
        return self

    def harvest_mapping(self, mapping) -> "VocabularyIndex":
        """Add every term a :class:`repro.d2r.D2RMapping` can emit."""
        for table_map in mapping.table_maps.values():
            if table_map.rdf_class is not None:
                self.classes.add(str(table_map.rdf_class))
            for prop in table_map.properties:
                self.predicates.add(str(prop.predicate))
            for link in table_map.links:
                self.predicates.add(str(link.predicate))
            for split in table_map.keyword_splits:
                self.predicates.add(str(split.predicate))
        return self

    def add_predicates(self, *predicates: str) -> "VocabularyIndex":
        self.predicates.update(str(p) for p in predicates)
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def knows_predicate(self, iri: str) -> bool:
        return str(iri) in self.predicates

    def knows_class(self, iri: str) -> bool:
        return str(iri) in self.classes

    def suggest_predicate(self, iri: str) -> Optional[str]:
        return _suggest(str(iri), self.predicates)

    def suggest_class(self, iri: str) -> Optional[str]:
        return _suggest(str(iri), self.classes)


def _suggest(target: str, candidates: Set[str]) -> Optional[str]:
    """Nearest candidate IRI by Jaro-Winkler over local names, preferring
    candidates in the same namespace; ``None`` below the threshold."""
    if not candidates:
        return None
    target_local = _local_name(target)
    target_ns = target[: len(target) - len(target_local)]
    best: Optional[Tuple[float, str]] = None
    for candidate in sorted(candidates):
        score = jaro_winkler_ci(target_local, _local_name(candidate))
        if candidate.startswith(target_ns) and target_ns:
            score += 0.05  # same-namespace tie-break
        if best is None or score > best[0]:
            best = (score, candidate)
    if best is None or best[0] < SUGGESTION_THRESHOLD:
        return None
    return best[1]


def default_vocabulary() -> VocabularyIndex:
    """The index covering everything this deployment publishes.

    Combines the ontology graph, the LOD corpus, the platform's D2R
    mapping and the annotation-pipeline predicates. Cached — the corpus
    itself is cached by :func:`repro.lod.datasets.build_lod_corpus`.
    """
    global _DEFAULT
    if _DEFAULT is not None:
        return _DEFAULT
    # imported here: platform/lod pull in heavy modules and importing them
    # at module scope would cycle through repro.sparql.evaluator
    from ..lod.datasets import build_lod_corpus
    from ..lod.ontology import build_ontology
    from ..platform.vocab import platform_mapping
    from ..rdf.namespace import DC, DCTERMS, OWL, RDFS as _RDFS, SIOC

    index = VocabularyIndex()
    index.harvest_graph(build_ontology())
    index.harvest_graph(build_lod_corpus().union())
    index.harvest_mapping(platform_mapping())
    # annotation pipeline output and generic description predicates
    index.add_predicates(
        str(DCTERMS.subject), str(DCTERMS.created), str(DC.title),
        str(_RDFS.label), str(_RDFS.seeAlso), str(OWL.sameAs),
        str(SIOC.topic),
    )
    _DEFAULT = index
    return index


_DEFAULT: Optional[VocabularyIndex] = None
