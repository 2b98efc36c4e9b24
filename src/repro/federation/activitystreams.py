"""ActivityStreams timelines (paper §6.2).

"A users' activities timeline in the ActivityStreams format." —
activities follow the 2011 JSON Activity Streams shape (actor / verb /
object / published) and timelines can be merged across nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

VERBS = frozenset({"post", "share", "like", "follow", "tag", "comment"})


class ActivityError(ValueError):
    """Invalid activity structure."""


@dataclass(frozen=True)
class Activity:
    """One activity entry."""

    actor: str          # acct:user@domain
    verb: str
    object_id: str      # URL or URI of the object
    object_type: str = "photo"
    published: int = 0  # epoch seconds
    summary: Optional[str] = None

    def __post_init__(self) -> None:
        if self.verb not in VERBS:
            raise ActivityError(f"unknown verb: {self.verb!r}")

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "actor": {"objectType": "person", "id": self.actor},
            "verb": self.verb,
            "object": {
                "objectType": self.object_type,
                "id": self.object_id,
            },
            "published": self.published,
        }
        if self.summary is not None:
            doc["summary"] = self.summary
        return doc

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "Activity":
        try:
            return cls(
                actor=doc["actor"]["id"],
                verb=doc["verb"],
                object_id=doc["object"]["id"],
                object_type=doc["object"].get("objectType", "photo"),
                published=doc.get("published", 0),
                summary=doc.get("summary"),
            )
        except (KeyError, TypeError) as exc:
            raise ActivityError(f"malformed activity: {doc!r}") from exc


class Timeline:
    """An append-only activity stream, newest first on read."""

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._activities: List[Activity] = []

    def push(self, activity: Activity) -> None:
        self._activities.append(activity)

    def entries(self) -> List[Activity]:
        """Every activity, newest first."""
        return sorted(
            self._activities,
            key=lambda a: (-a.published, a.actor, a.object_id),
        )

    def __len__(self) -> int:
        return len(self._activities)


def merge_timelines(
    timelines: Iterable[Timeline], limit: Optional[int] = None
) -> List[Activity]:
    """The federated home view: activities of several nodes interleaved
    by publication time (newest first)."""
    merged: List[Activity] = []
    for timeline in timelines:
        merged.extend(timeline.entries())
    merged.sort(key=lambda a: (-a.published, a.actor, a.object_id))
    return merged[:limit] if limit is not None else merged
