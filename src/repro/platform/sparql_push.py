"""sparqlPuSH — proactive notification of RDF store updates.

The paper cites Passant & Mendes' sparqlPuSH [10] as a direct influence:
"proactive notification of data updates in RDF stores using
PubSubHubbub". A client registers a SPARQL SELECT as a subscription;
whenever the store changes, the query is re-evaluated and — if its
result set changed — the delta is published through the hub, so mobile
clients learn about new matching content without polling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Tuple, Union

from ..federation.pubsub import Hub
from ..rdf.graph import Graph
from ..sparql.evaluator import Evaluator
from ..sparql.results import SelectResult


class SparqlPushError(Exception):
    """Invalid subscription (non-SELECT query, unknown id)."""


def _row_key(row) -> Tuple:
    return tuple(sorted((str(k), v) for k, v in row.items()))


@dataclass
class _Registration:
    query: str
    topic: str
    last_rows: FrozenSet[Tuple] = frozenset()


#: A graph, a zero-argument callable returning the current graph
#: (``platform.union_graph`` — re-pulled on every evaluation), or an
#: MVCC quad-store (``repro.store.QuadStore`` — its pinned union head
#: is re-pulled per round, duck-typed to avoid the import).
GraphSource = Union[Graph, Callable[[], Graph]]


class SparqlPushService:
    """Re-evaluates registered queries on store updates and publishes
    the row-level deltas through a PubSubHubbub-style hub.

    ``graph`` may be a live :class:`~repro.rdf.graph.Graph` or a
    zero-argument *provider* callable. Pass the provider form
    (``SparqlPushService(platform.union_graph)``) when the store hands
    out derived read-only snapshots: each :meth:`notify_update` then
    re-pulls the current union instead of watching a stale copy (a
    snapshot cannot be hand-fed new triples: it refuses writes).

    A :class:`repro.store.QuadStore` source works the same way with no
    callable needed: each round pins the store's current head, so all
    registered queries in one :meth:`notify_update` evaluate against a
    single MVCC generation even while writers keep committing.
    """

    def __init__(self, graph: GraphSource) -> None:
        self._source: GraphSource = graph
        self.hub = Hub()
        self._registrations: Dict[str, _Registration] = {}
        self._counter = itertools.count(1)

    @property
    def graph(self) -> Graph:
        """The graph queries currently evaluate against."""
        if callable(self._source):
            return self._source()
        head = getattr(self._source, "head", None)
        if callable(head) and hasattr(self._source, "dataset_snapshot"):
            # a quad-store: one pinned generation per notify round, so
            # every registered query in the round sees the same data
            return head()
        return self._source

    # ------------------------------------------------------------------
    def register(self, query: str) -> str:
        """Register a SELECT query; returns the subscription id whose
        topic is ``sparqlpush:<id>``."""
        result = Evaluator(self.graph).evaluate(query)
        if not isinstance(result, SelectResult):
            raise SparqlPushError(
                "only SELECT queries can be registered"
            )
        sub_id = f"q{next(self._counter)}"
        registration = _Registration(
            query=query,
            topic=f"sparqlpush:{sub_id}",
            last_rows=frozenset(_row_key(r) for r in result),
        )
        self._registrations[sub_id] = registration
        return sub_id

    def unregister(self, sub_id: str) -> None:
        if sub_id not in self._registrations:
            raise SparqlPushError(f"unknown subscription: {sub_id}")
        del self._registrations[sub_id]

    def topic(self, sub_id: str) -> str:
        if sub_id not in self._registrations:
            raise SparqlPushError(f"unknown subscription: {sub_id}")
        return self._registrations[sub_id].topic

    def listen(
        self, sub_id: str, subscriber_id: str,
        callback: Callable[[str, object], None],
    ) -> None:
        """Subscribe a client callback to a registered query's topic."""
        self.hub.subscribe(
            subscriber_id, self.topic(sub_id), callback,
            verify=lambda challenge: challenge,
        )

    # ------------------------------------------------------------------
    def notify_update(self) -> Dict[str, int]:
        """Call after mutating the store: re-evaluates every registered
        query and publishes per-query deltas. Returns sub_id →
        deliveries."""
        deliveries: Dict[str, int] = {}
        graph = self.graph  # one provider pull for the whole round
        # a listener may unregister from its callback: walk a snapshot,
        # and skip what was removed before its turn
        for sub_id, registration in list(self._registrations.items()):
            if self._registrations.get(sub_id) is not registration:
                continue
            result = Evaluator(graph).evaluate(registration.query)
            assert isinstance(result, SelectResult)
            rows_by_key = {_row_key(r): r for r in result}
            current = frozenset(rows_by_key)
            if current == registration.last_rows:
                continue
            added_keys = current - registration.last_rows
            removed = len(registration.last_rows - current)
            payload = {
                "query": registration.query,
                "added": [
                    {str(k): str(v) for k, v in rows_by_key[key].items()}
                    for key in sorted(added_keys)
                ],
                "removed_count": removed,
            }
            deliveries[sub_id] = self.hub.publish(
                registration.topic, payload
            )
            registration.last_rows = current
        return deliveries
