"""Resolver abstractions: candidates and the resolver interface.

A resolver takes a word (term-based analysis) or a whole title
(full-text analysis) and proposes candidate LOD resources with a
resolver-native score. Candidates remember which *graph* their resource
belongs to, because the paper's filtering assigns priorities "with
graphs and not with the resolvers" (§2.2.2) — a Sindice candidate may
point into Geonames or DBpedia or elsewhere.

The corpus resolvers answer a word from the corpus alone, so each keeps
a :class:`TermMemo` of what its ``resolve_term`` returned: a bulk
annotation pays once per distinct word, not once per title using it.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..rdf.terms import URIRef

#: Graph families the filtering step distinguishes.
GRAPH_GEONAMES = "geonames"
GRAPH_DBPEDIA = "dbpedia"
GRAPH_EVRI = "evri"
GRAPH_OTHER = "other"


def classify_graph(resource: URIRef) -> str:
    """Classify a resource URI into its source graph family."""
    text = str(resource)
    if text.startswith("http://sws.geonames.org/") or text.startswith(
        "http://www.geonames.org/"
    ):
        return GRAPH_GEONAMES
    if text.startswith("http://dbpedia.org/"):
        return GRAPH_DBPEDIA
    if text.startswith("http://www.evri.com/") or text.startswith(
        "http://evri.com/"
    ):
        return GRAPH_EVRI
    return GRAPH_OTHER


@dataclass(frozen=True)
class Candidate:
    """One candidate LOD resource for a word or text fragment."""

    resource: URIRef
    label: str                  # the resource's display label
    score: float                # resolver-native score in [0, 1]
    resolver: str               # resolver name, e.g. "dbpedia"
    word: str                   # the surface form that triggered the match
    graph: str = field(default="")  # filled from classify_graph if empty
    entity_type: Optional[str] = None  # e.g. "place", "person"
    language: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score out of range: {self.score}")
        if not self.graph:
            object.__setattr__(self, "graph", classify_graph(self.resource))


class Resolver(abc.ABC):
    """Base class for candidate sources.

    Term-based resolvers implement :meth:`resolve_term`; resolvers that
    benefit from the whole title as context (Evri, Zemanta in the paper)
    additionally override :meth:`resolve_text`.
    """

    #: Name used in Candidate.resolver and broker diagnostics.
    name: str = "resolver"

    @abc.abstractmethod
    def resolve_term(
        self, word: str, language: Optional[str] = None
    ) -> List[Candidate]:
        """Candidates for a single (multi)word."""

    def resolve_text(
        self, text: str, language: Optional[str] = None
    ) -> List[Candidate]:
        """Candidates extracted from full text. Default: none — only
        full-text resolvers participate in this phase."""
        return []

    @property
    def supports_full_text(self) -> bool:
        return type(self).resolve_text is not Resolver.resolve_text


#: Entries one :class:`TermMemo` keeps; past it, new arguments are
#: resolved on every call, as without a memo.
TERM_MEMO_LIMIT = 65_536


class TermMemo:
    """The candidates one resolver instance's ``resolve_term`` returned,
    by its full argument tuple.

    Exact for a resolver that reads only its corpus graphs, which are
    immutable by convention (:func:`repro.lod.build_lod_corpus`): the
    same arguments give the same candidates for the instance's lifetime.
    Each resolver owns one, so nothing carries from one platform to the
    next, and the memo sits below every wrapper
    (:class:`~repro.resolvers.resilience.ResilientResolver`,
    :class:`~repro.resolvers.resilience.FlakyResolver`): their caches,
    breakers, counters and injected faults see the calls they always
    saw. Batch workers share it; two of them missing on one key at once
    both compute, and the first answer is kept.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[Tuple[Any, ...], Tuple[Candidate, ...]] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def resolve(
        self,
        compute: Callable[..., Sequence[Candidate]],
        *arguments: Any,
    ) -> List[Candidate]:
        """``compute(*arguments)``, computed once per distinct
        ``arguments``; a fresh list each call, as ``compute`` gives."""
        with self._lock:
            found = self._entries.get(arguments)
        if found is None:
            found = tuple(compute(*arguments))
            with self._lock:
                if len(self._entries) < TERM_MEMO_LIMIT:
                    found = self._entries.setdefault(arguments, found)
        return list(found)
