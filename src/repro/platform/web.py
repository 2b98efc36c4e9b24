"""The web interface (paper §3).

"The platform's web interface offers users an environment to perform
many operations: from personal profile and social features management to
content browsing or advanced content editing. It's targeted for modern
web browsers and when it is accessed from a mobile device, redirects the
user automatically to the mobile interface (giving also the possibility
to switch back to the normal web interface)."

This module models that surface as plain request/response objects:
user-agent sniffing with the mobile redirect and the manual override,
session login through the OpenID relying party, profile and friendship
management, paginated content browsing, and the editing operations
(title/tags, graphical region annotations, deletion) the gallery core
exposes.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..obs import get_registry, get_tracer
from .gallery import Platform
from .identity import OpenIdError, RelyingParty
from .models import ContentItem


#: The web request counter, by route and status.
_REQUESTS = "repro_web_requests_total"


class _RouteMetrics:
    """One route's request counter and latency histogram as resolved in
    one registry: the counter family, its ``status="ok"`` child and the
    histogram's child."""

    __slots__ = ("requests", "ok", "seconds")

    def __init__(self, registry, route: str) -> None:
        self.requests = registry.counter(
            _REQUESTS, "Web interface requests by route and status.",
        )
        self.ok = self.requests.labels(route=route, status="ok")
        self.seconds = registry.histogram(
            "repro_web_request_seconds",
            "Web interface request latency by route.",
        ).labels(route=route)


def _traced(route: str):
    """Per-request instrumentation for a :class:`WebInterface` method:
    a ``web.<route>`` span plus request counter and latency histogram
    labelled by route.

    The metric children are resolved once and again whenever the
    current registry does not hold the counter family they came from
    (:func:`get_registry` returned another registry, or it was
    cleared); a failed request's ``status="error"`` child is looked up
    when it happens."""
    # (a racing first request at worst resolves the same children twice)
    resolved: List[Optional[_RouteMetrics]] = [None]

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            began = time.perf_counter()
            status = "ok"
            with get_tracer().span(f"web.{route}"):
                try:
                    return fn(self, *args, **kwargs)
                except Exception:
                    status = "error"
                    raise
                finally:
                    registry = get_registry()
                    metrics = resolved[0]
                    if (
                        metrics is None
                        or registry.get(_REQUESTS) is not metrics.requests
                    ):
                        metrics = resolved[0] = _RouteMetrics(
                            registry, route
                        )
                    (
                        metrics.ok if status == "ok"
                        else metrics.requests.labels(
                            route=route, status=status
                        )
                    ).inc()
                    metrics.seconds.observe(time.perf_counter() - began)

        return wrapper

    return decorate


#: Substrings that identify 2012-era mobile browsers.
MOBILE_UA_MARKERS = (
    "iphone", "ipod", "android", "blackberry", "windows phone",
    "symbian", "opera mini", "opera mobi", "mobile safari",
)


def is_mobile_user_agent(user_agent: str) -> bool:
    lowered = user_agent.lower()
    return any(marker in lowered for marker in MOBILE_UA_MARKERS)


@dataclass(frozen=True)
class RouteDecision:
    """Where a request lands: desktop or mobile interface."""

    interface: str  # "web" | "mobile"
    redirected: bool


@dataclass
class Page:
    """One page of a content listing."""

    items: List[ContentItem]
    page: int
    page_size: int
    total: int

    @property
    def pages(self) -> int:
        if self.total == 0:
            return 1
        return -(-self.total // self.page_size)

    @property
    def has_next(self) -> bool:
        return self.page < self.pages


class WebSession:
    """An authenticated browsing session."""

    _ids = itertools.count(1)

    def __init__(self, username: str, interface: str) -> None:
        self.session_id = f"sess-{next(self._ids)}"
        self.username = username
        self.interface = interface
        self.forced_interface: Optional[str] = None


class WebInterface:
    """The request-level façade over a :class:`Platform`."""

    def __init__(
        self,
        platform: Platform,
        relying_party: Optional[RelyingParty] = None,
    ) -> None:
        self.platform = platform
        self.relying_party = relying_party or RelyingParty()
        self._sessions: Dict[str, WebSession] = {}

    # ------------------------------------------------------------------
    # Routing (§3: automatic mobile redirect + manual switch back)
    # ------------------------------------------------------------------
    @_traced("route")
    def route(
        self,
        user_agent: str,
        session: Optional[WebSession] = None,
    ) -> RouteDecision:
        if session is not None and session.forced_interface is not None:
            return RouteDecision(session.forced_interface, False)
        if is_mobile_user_agent(user_agent):
            return RouteDecision("mobile", True)
        return RouteDecision("web", False)

    def switch_interface(self, session: WebSession, interface: str) -> None:
        """The "switch back to the normal web interface" control."""
        if interface not in ("web", "mobile"):
            raise ValueError(f"unknown interface: {interface!r}")
        session.forced_interface = interface

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    @_traced("login")
    def login_with_openid(
        self, claimed_id: str, user_agent: str = ""
    ) -> WebSession:
        """OpenID sign-in: the claimed id must belong to a registered
        platform user (matched on the stored openid column)."""
        authenticated = self.relying_party.authenticate(claimed_id)
        for row in self.platform.db.table("users").scan():
            if row["openid"] == authenticated:
                session = WebSession(
                    row["user_name"],
                    self.route(user_agent).interface,
                )
                self._sessions[session.session_id] = session
                return session
        raise OpenIdError(
            f"no platform account for {authenticated}"
        )

    def session(self, session_id: str) -> WebSession:
        if session_id not in self._sessions:
            raise KeyError(f"unknown session: {session_id}")
        return self._sessions[session_id]

    def logout(self, session: WebSession) -> None:
        self._sessions.pop(session.session_id, None)

    # ------------------------------------------------------------------
    # Profile and social management
    # ------------------------------------------------------------------
    @_traced("update-profile")
    def update_profile(
        self,
        session: WebSession,
        full_name: Optional[str] = None,
        email: Optional[str] = None,
    ) -> None:
        self.platform.update_user(
            session.username, full_name=full_name, email=email
        )

    def profile(self, username: str) -> dict:
        row = self.platform.db.table("users").get(username)
        if row is None:
            raise KeyError(f"unknown user: {username}")
        return row

    @_traced("add-friend")
    def add_friend(self, session: WebSession, other: str) -> None:
        self.platform.add_friendship(session.username, other)

    @_traced("friends")
    def friends_of(self, username: str) -> List[str]:
        return sorted(
            row["user_b"]
            for row in self.platform.db.table("friends").scan()
            if row["user_a"] == username
        )

    # ------------------------------------------------------------------
    # Content browsing
    # ------------------------------------------------------------------
    @_traced("browse")
    def browse(
        self,
        page: int = 1,
        page_size: int = 10,
        owner: Optional[str] = None,
        order: str = "newest",
    ) -> Page:
        """Paginated content listing, newest first by default: a slice
        of the platform's ordered view (:meth:`Platform.ordered`)."""
        if page < 1 or page_size < 1:
            raise ValueError("page and page_size must be >= 1")
        items = self.platform.ordered(order, owner)
        start = (page - 1) * page_size
        return Page(
            items=items[start : start + page_size],
            page=page,
            page_size=page_size,
            total=len(items),
        )

    # ------------------------------------------------------------------
    # Advanced content editing (owner-only)
    # ------------------------------------------------------------------
    def _require_owner(self, session: WebSession, pid: int) -> None:
        if self.platform.content(pid).owner != session.username:
            raise PermissionError(
                f"{session.username} does not own content #{pid}"
            )

    @_traced("edit-content")
    def edit_content(
        self,
        session: WebSession,
        pid: int,
        title: Optional[str] = None,
        tags: Optional[Sequence[str]] = None,
    ) -> ContentItem:
        self._require_owner(session, pid)
        return self.platform.edit_content(
            pid, title=title,
            tags=list(tags) if tags is not None else None,
        )

    @_traced("delete-content")
    def delete_content(self, session: WebSession, pid: int) -> None:
        self._require_owner(session, pid)
        self.platform.delete_content(pid)

    @_traced("annotate-region")
    def annotate_region(
        self,
        session: WebSession,
        pid: int,
        x: float,
        y: float,
        width: float,
        height: float,
        note: Optional[str] = None,
    ) -> int:
        self._require_owner(session, pid)
        return self.platform.annotate_region(
            pid, x, y, width, height, note
        )
