"""Resolver abstractions: candidates and the resolver interface.

A resolver takes a word (term-based analysis) or a whole title
(full-text analysis) and proposes candidate LOD resources with a
resolver-native score. Candidates remember which *graph* their resource
belongs to, because the paper's filtering assigns priorities "with
graphs and not with the resolvers" (§2.2.2) — a Sindice candidate may
point into Geonames or DBpedia or elsewhere.

The corpus resolvers answer a word from the corpus alone, so each keeps
a :class:`Memo` of what its ``resolve_term`` returned: a bulk
annotation pays once per distinct word, not once per title using it.
The annotator's text stage and the semantic filter keep one too.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

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


#: Entries one :class:`Memo` keeps; past it, new arguments are
#: computed on every call, as without a memo.
TERM_MEMO_LIMIT = 65_536

_MISSING = object()


class Memo:
    """What one owner's pure function returned, by its argument tuple.

    Exact for a function that reads only its owner's immutable state
    (corpus graphs, which are immutable by convention
    (:func:`repro.lod.build_lod_corpus`), and configuration fixed at
    construction): the same arguments give the same value for the
    owner's lifetime. Each owner (a corpus resolver, an annotator, a
    semantic filter) keeps its own, so nothing carries from one platform
    to the next, and a resolver's memo sits below every wrapper
    (:class:`~repro.resolvers.resilience.ResilientResolver`,
    :class:`~repro.resolvers.resilience.FlakyResolver`): their caches,
    breakers, counters and injected faults see the calls they always
    saw. Batch workers share it; a worker that misses on a key another
    is computing waits for that answer, so each key is computed once.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[Tuple[Any, ...], Any] = {}
        self._pending: Dict[Tuple[Any, ...], threading.Event] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, compute: Callable[..., Any], *arguments: Any) -> Any:
        """``compute(*arguments)``, computed once per distinct
        ``arguments`` while there is room. The value is shared by every
        caller, so the caller hands out copies of what is mutable in
        it."""
        while True:
            with self._lock:
                found = self._entries.get(arguments, _MISSING)
                if found is not _MISSING:
                    return found
                waiting = self._pending.get(arguments)
                if waiting is None:
                    if (len(self._entries) + len(self._pending)
                            >= TERM_MEMO_LIMIT):
                        break
                    computing = self._pending[arguments] = (
                        threading.Event()
                    )
            if waiting is None:
                try:
                    found = compute(*arguments)
                finally:
                    with self._lock:
                        del self._pending[arguments]
                        if found is not _MISSING:
                            self._entries[arguments] = found
                    computing.set()
                return found
            # another caller is computing it: take its answer, or
            # compute it here if that caller raised
            waiting.wait()
        return compute(*arguments)
