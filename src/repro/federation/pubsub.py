"""PubSubHubbub-style publish/subscribe (paper §6.2).

"Publish and subscribe mechanism implemented through the PubSubHubBub
open protocol which also provides near-instant notifications."

The hub keeps per-topic subscriber lists; subscription requires the
subscriber to echo a verification challenge (the protocol's intent
verification), and publishing fans the payload out synchronously —
"near-instant" in-process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


class PubSubError(Exception):
    """Subscription/verification failures."""


#: A subscriber callback: (topic, payload) -> None.
Callback = Callable[[str, Any], None]


@dataclass
class Subscription:
    subscriber_id: str
    topic: str
    callback: Callback
    verified: bool = False


class Hub:
    """The hub all nodes publish through."""

    def __init__(self) -> None:
        self._subscriptions: Dict[str, List[Subscription]] = {}
        self._challenges: Dict[str, Tuple[Subscription, str]] = {}
        self._challenge_counter = itertools.count(1)
        self.delivery_log: List[Tuple[str, str]] = []  # (topic, subscriber)

    # ------------------------------------------------------------------
    def subscribe(
        self,
        subscriber_id: str,
        topic: str,
        callback: Callback,
        verify: Optional[Callable[[str], str]] = None,
    ) -> str:
        """Request a subscription. Returns the challenge token; the
        subscription activates only when :meth:`verify` is called with
        the echoed challenge (or immediately when ``verify`` is given
        and echoes correctly)."""
        subscription = Subscription(subscriber_id, topic, callback)
        challenge = f"challenge-{next(self._challenge_counter)}"
        self._challenges[challenge] = (subscription, challenge)
        if verify is not None:
            echoed = verify(challenge)
            self.verify(challenge, echoed)
        return challenge

    def verify(self, challenge: str, echoed: str) -> None:
        entry = self._challenges.pop(challenge, None)
        if entry is None:
            raise PubSubError("unknown challenge")
        subscription, expected = entry
        if echoed != expected:
            raise PubSubError("challenge mismatch")
        subscription.verified = True
        self._subscriptions.setdefault(subscription.topic, []).append(
            subscription
        )

    def unsubscribe(self, subscriber_id: str, topic: str) -> bool:
        subs = self._subscriptions.get(topic, [])
        before = len(subs)
        subs[:] = [s for s in subs if s.subscriber_id != subscriber_id]
        return len(subs) < before

    def subscribers(self, topic: str) -> List[str]:
        return [
            s.subscriber_id for s in self._subscriptions.get(topic, [])
        ]

    # ------------------------------------------------------------------
    def publish(self, topic: str, payload: Any) -> int:
        """Fan out to all verified subscribers; returns delivery count.

        Delivers to the subscribers of the moment of the call: a callback
        that unsubscribes (itself or another) takes effect from the next
        publish, and skips nobody in this one."""
        delivered = 0
        for subscription in list(self._subscriptions.get(topic, [])):
            subscription.callback(topic, payload)
            self.delivery_log.append((topic, subscription.subscriber_id))
            delivered += 1
        return delivered
