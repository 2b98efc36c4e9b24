"""The semantic brokering component (paper §2.2.2, Figure 1).

"The next step involves a semantic brokering component. This component
is assisted by a set of resolvers that perform full-text or term-based
analysis [...] aimed at providing candidate semantic concepts referring
to Linked Open Data."

The broker fans a word list out to the term resolvers and the whole
title to the full-text resolvers (Evri, Zemanta), then merges: per
resource, the highest-scoring candidate wins, and per-word candidate
lists stay separate because disambiguation happens per word downstream.

Resolvers are external services and fail; the broker isolates each
resolver call, so one resolver raising loses only *its* candidates —
the merge still happens over everything the healthy resolvers returned,
and the failure is recorded on the result (``BrokerResult.failures``,
``BrokerResult.degraded``) instead of aborting the annotation. Pair
with :mod:`repro.resolvers.resilience` for retry/breaker/cache
hardening of the individual calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..obs import get_registry
from ..rdf.terms import URIRef
from .base import Candidate, Resolver


@dataclass(frozen=True)
class ResolverFailure:
    """One isolated resolver failure during a broker pass."""

    resolver: str
    word: Optional[str]  # None for the full-text phase
    error: str


@dataclass
class BrokerResult:
    """The broker's output: candidates grouped by originating word, plus
    the full-text candidates keyed under the pseudo-word ``*text*``.

    ``failures`` lists every isolated resolver error; ``degraded`` is
    true when at least one resolver failed — the candidates are then a
    partial (but still well-merged) view.
    """

    per_word: Dict[str, List[Candidate]] = field(default_factory=dict)
    full_text: List[Candidate] = field(default_factory=list)
    failures: List[ResolverFailure] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.failures)

    def failed_resolvers(self) -> List[str]:
        """Names of resolvers that failed at least once, sorted."""
        return sorted({failure.resolver for failure in self.failures})

    def all_candidates(self) -> List[Candidate]:
        merged: List[Candidate] = []
        for candidates in self.per_word.values():
            merged.extend(candidates)
        merged.extend(self.full_text)
        return merged

    def words(self) -> List[str]:
        return list(self.per_word)


class SemanticBroker:
    """Fans out to resolvers and merges their candidates."""

    def __init__(self, resolvers: Sequence[Resolver]) -> None:
        if not resolvers:
            raise ValueError("broker needs at least one resolver")
        self.resolvers = list(resolvers)

    def resolve(
        self,
        words: Iterable[str],
        text: Optional[str] = None,
        language: Optional[str] = None,
    ) -> BrokerResult:
        """Resolve each word individually plus the full text as context.

        Every resolver call is isolated: a raising resolver contributes
        no candidates for that word but cannot abort the merge or drop
        what other resolvers already returned. Failures are recorded on
        the result.
        """
        result = BrokerResult()
        for word in words:
            if word in result.per_word:
                continue
            collected: List[Candidate] = []
            for resolver in self.resolvers:
                try:
                    collected.extend(resolver.resolve_term(word, language))
                except Exception as exc:  # noqa: BLE001 - isolate
                    self._record_failure(result, resolver.name, word, exc)
            result.per_word[word] = self._merge(collected)
        if text:
            collected = []
            for resolver in self.resolvers:
                if not resolver.supports_full_text:
                    continue
                try:
                    collected.extend(resolver.resolve_text(text, language))
                except Exception as exc:  # noqa: BLE001 - isolate
                    self._record_failure(result, resolver.name, None, exc)
            result.full_text = self._merge(collected)
        return result

    @staticmethod
    def _record_failure(
        result: BrokerResult,
        resolver: str,
        word: Optional[str],
        exc: BaseException,
    ) -> None:
        result.failures.append(ResolverFailure(
            resolver=resolver,
            word=word,
            error=f"{type(exc).__name__}: {exc}",
        ))
        get_registry().counter(
            "repro_broker_failures_total",
            "Isolated resolver failures during broker passes.",
        ).labels(resolver=resolver).inc()

    def resolver_stats(self) -> Dict[str, object]:
        """Per-resolver resilience counters, for resolvers that expose
        them (:class:`~repro.resolvers.resilience.ResilientResolver`);
        plain resolvers are simply absent from the mapping."""
        stats: Dict[str, object] = {}
        for resolver in self.resolvers:
            collect = getattr(resolver, "stats", None)
            if callable(collect):
                stats[resolver.name] = collect()
        return stats

    @staticmethod
    def _merge(candidates: Iterable[Candidate]) -> List[Candidate]:
        """Deduplicate by resource, keeping the highest-scoring candidate
        (stable across runs: score ties resolve to the candidate with
        the smaller ``(resolver, resource)`` pair)."""
        best: Dict[URIRef, Candidate] = {}
        for candidate in candidates:
            current = best.get(candidate.resource)
            if current is None or (
                candidate.score > current.score
                or (
                    candidate.score == current.score
                    and (candidate.resolver, str(candidate.resource))
                    < (current.resolver, str(current.resource))
                )
            ):
                best[candidate.resource] = candidate
        return sorted(
            best.values(), key=lambda c: (-c.score, str(c.resource))
        )


#: The issue tracker and the paper's prose call this component the
#: "resolver broker"; both names resolve to the same class.
ResolverBroker = SemanticBroker
