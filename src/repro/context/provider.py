"""The context management platform simulation.

Keeps per-user state (registered positions, friendships, place labels,
calendars) and answers "what was the context of user U at time T?" —
producing the :class:`~repro.context.models.UserContext` the upload
pipeline consumes, and the triple tags the legacy annotation path stores
(paper §1.1).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple
from weakref import WeakMethod

from ..rdf.namespace import TL_USER
from ..sparql.geo import Point, haversine_km
from .gazetteer import Gazetteer
from .models import Buddy, CalendarEntry, GsmCell, LocationContext, UserContext
from .triple_tags import TripleTag

#: Radius within which another user counts as a "nearby buddy".
NEARBY_RADIUS_KM = 1.0

#: A position fix older than this (seconds) no longer locates a user.
MAX_FIX_AGE = 3600

#: How near a user's own place label must be to name a position (km).
PLACE_LABEL_RADIUS_KM = 0.2

#: Sort key of a ``(timestamp, point)`` fix.
_fix_time = itemgetter(0)


def _live(subscriber: Optional[WeakMethod]) -> Optional[Callable]:
    """The subscribed method, or ``None`` if there is no subscriber
    or it has been collected."""
    return None if subscriber is None else subscriber()


@dataclass
class _UserRecord:
    username: str
    full_name: str
    positions: List[Tuple[int, Point]] = field(default_factory=list)
    friends: set = field(default_factory=set)
    calendar: List[CalendarEntry] = field(default_factory=list)
    place_labels: List[Tuple[Point, str, Optional[str]]] = field(
        default_factory=list
    )
    external_accounts: Tuple[str, ...] = ()


class ContextPlatform:
    """In-process context manager for a set of platform users."""

    def __init__(self) -> None:
        self.gazetteer = Gazetteer()
        self._users: Dict[str, _UserRecord] = {}
        #: the subscriber's bound methods, held weakly (:meth:`subscribe`)
        self._on_fix: Optional[WeakMethod] = None
        self._on_friendship: Optional[WeakMethod] = None

    def subscribe(
        self,
        on_fix: Callable[[str, int], None],
        on_friendship: Callable[[str, str], None],
    ) -> None:
        """Register the one consumer that derives data from positions
        and friendships (the sharing platform locates its items by
        them): ``on_fix(username, timestamp)`` and
        ``on_friendship(user_a, user_b)`` run after each is recorded,
        whoever reported it.

        Both are bound methods of the consumer and are held weakly: the
        context platform does not keep its consumer alive (nor form a
        reference cycle with it), and once the consumer is gone its
        place is free again."""
        if _live(self._on_fix) is not None:
            raise ValueError(
                "this context platform already feeds a sharing platform"
            )
        self._on_fix = WeakMethod(on_fix)
        self._on_friendship = WeakMethod(on_friendship)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_user(
        self,
        username: str,
        full_name: Optional[str] = None,
        external_accounts: Tuple[str, ...] = (),
    ) -> None:
        if username in self._users:
            raise ValueError(f"user {username!r} already registered")
        self._users[username] = _UserRecord(
            username=username,
            full_name=full_name or username,
            external_accounts=external_accounts,
        )

    def _record(self, username: str) -> _UserRecord:
        if username not in self._users:
            raise KeyError(f"unknown user: {username!r}")
        return self._users[username]

    def add_friendship(self, user_a: str, user_b: str) -> None:
        """Symmetric friendship."""
        self._record(user_a).friends.add(user_b)
        self._record(user_b).friends.add(user_a)
        on_friendship = _live(self._on_friendship)
        if on_friendship is not None:
            on_friendship(user_a, user_b)

    def friends_of(self, username: str) -> List[str]:
        """The user's friends, sorted by username."""
        return sorted(self._record(username).friends)

    def report_position(
        self, username: str, timestamp: int, point: Point
    ) -> None:
        """Record a position fix (kept sorted by time; fixes with the
        same timestamp stay in the order they were reported)."""
        insort_right(
            self._record(username).positions, (timestamp, point),
            key=_fix_time,
        )
        on_fix = _live(self._on_fix)
        if on_fix is not None:
            on_fix(username, timestamp)

    def add_calendar_entry(
        self, username: str, entry: CalendarEntry
    ) -> None:
        self._record(username).calendar.append(entry)

    def label_place(
        self,
        username: str,
        point: Point,
        label: str,
        place_type: Optional[str] = None,
    ) -> None:
        """User-defined location label ("home", "office", "crowded"...)."""
        self._record(username).place_labels.append(
            (point, label, place_type)
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def position_at(
        self, username: str, timestamp: int
    ) -> Optional[Point]:
        """Most recent fix at or before ``timestamp`` within
        :data:`MAX_FIX_AGE` seconds (deferred uploads carry their capture
        timestamp); among fixes with that same timestamp the first
        reported wins."""
        positions = self._record(username).positions
        after = bisect_right(positions, timestamp, key=_fix_time)
        if after == 0:
            return None
        fix_time = positions[after - 1][0]
        if timestamp - fix_time > MAX_FIX_AGE:
            return None
        first = bisect_left(positions, fix_time, hi=after, key=_fix_time)
        return positions[first][1]

    def nearby_buddies(
        self, username: str, timestamp: int
    ) -> List[Buddy]:
        """Friends within :data:`NEARBY_RADIUS_KM` at ``timestamp``."""
        own_position = self.position_at(username, timestamp)
        if own_position is None:
            return []
        buddies: List[Buddy] = []
        for friend_name in self.friends_of(username):
            friend = self._users.get(friend_name)
            if friend is None:
                continue
            position = self.position_at(friend_name, timestamp)
            if position is None:
                continue
            if haversine_km(own_position, position) <= NEARBY_RADIUS_KM:
                buddies.append(
                    Buddy(
                        username=friend.username,
                        full_name=friend.full_name,
                        resource=TL_USER[friend.username],
                        external_accounts=friend.external_accounts,
                    )
                )
        return buddies

    def serving_cell(self, point: Point) -> GsmCell:
        """Deterministic synthetic GSM cell for a position."""
        lac = int((point.latitude + 90.0) * 100) % 65536
        ci = int((point.longitude + 180.0) * 100) % 65536
        return GsmCell(mcc=222, mnc=1, lac=lac, ci=ci)

    def place_label_at(
        self, username: str, point: Point
    ) -> Optional[Tuple[str, Optional[str]]]:
        """The user's own label of a place within
        :data:`PLACE_LABEL_RADIUS_KM` of ``point``, with its type."""
        record = self._record(username)
        for label_point, label, place_type in record.place_labels:
            if haversine_km(point, label_point) <= PLACE_LABEL_RADIUS_KM:
                return (label, place_type)
        return None

    # ------------------------------------------------------------------
    # The main entry point
    # ------------------------------------------------------------------
    def contextualize(self, username: str, timestamp: int) -> UserContext:
        """Full context for (user, timestamp) — §2.2.1's first step."""
        record = self._record(username)
        context = UserContext(username=username, timestamp=timestamp)
        point = self.position_at(username, timestamp)
        if point is not None:
            address, geonames_resource = self.gazetteer.locate(point)
            labeled = self.place_label_at(username, point)
            context.location = LocationContext(
                point=point,
                address=address,
                place_label=labeled[0] if labeled else None,
                place_type=labeled[1] if labeled else None,
                geonames_resource=geonames_resource,
                cell=self.serving_cell(point),
            )
            context.buddies = self.nearby_buddies(username, timestamp)
        context.calendar = [
            entry
            for entry in record.calendar
            if entry.covers(timestamp)
        ]
        return context

    def context_tags(self, context: UserContext) -> List[TripleTag]:
        """The legacy triple tags for a context (paper §1.1).

        Emits the namespaces the paper lists: ``geo`` (coordinates),
        ``address`` (civil address), ``cell`` (CGI), ``place`` (labels),
        ``people`` (nearby buddy full names) and ``event`` (calendar).
        """
        tags: List[TripleTag] = []
        location = context.location
        if location is not None:
            tags.append(
                TripleTag("geo", "lat", f"{location.point.latitude:.5f}")
            )
            tags.append(
                TripleTag("geo", "lon", f"{location.point.longitude:.5f}")
            )
            if location.address is not None:
                tags.append(
                    TripleTag("address", "city", location.address.city)
                )
                tags.append(
                    TripleTag("address", "country",
                              location.address.country)
                )
            if location.cell is not None:
                tags.append(TripleTag("cell", "cgi", location.cell.cgi))
            if location.place_label is not None:
                tags.append(
                    TripleTag("place", "name", location.place_label)
                )
            if location.place_type is not None:
                tags.append(TripleTag("place", "is", location.place_type))
        for buddy in context.buddies:
            tags.append(TripleTag("people", "fn", buddy.full_name))
        for entry in context.calendar:
            tags.append(TripleTag("event", "title", entry.title))
        return tags
