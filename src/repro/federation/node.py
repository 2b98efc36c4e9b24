"""The federated node (paper §6): one home-network device per family.

Each node hosts its members' content, exposes WebFinger discovery, a
FOAF profile graph, ActivityStreams timelines, an OEmbed endpoint and a
UPnP media server, publishes updates through the PubSubHubbub hub and
accepts Salmon replies on its content. A :class:`Federation` wires the
shared infrastructure (directory, hub, key registry) together.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..rdf.graph import Graph
from ..rdf.namespace import FOAF, RDF
from ..rdf.terms import Literal, URIRef
from .activitystreams import Activity, Timeline, merge_timelines
from .oembed import OEmbedError, photo_response
from .pubsub import Hub
from .salmon import (
    Envelope,
    KeyDirectory,
    SalmonError,
    Slap,
    sign_slap,
    verify_envelope,
)
from .upnp import MediaItem, MediaServer, SsdpRegistry
from .webfinger import WebFingerDirectory, WebFingerError, parse_account


@dataclass
class FederatedContent:
    """A content item hosted on a node."""

    url: str
    author: str          # acct:user@domain
    title: str
    media_url: str
    published: int
    comments: List[Slap] = field(default_factory=list)


class FederatedNode:
    """One family's home server."""

    def __init__(self, domain: str, federation: "Federation",
                 signing_key: bytes) -> None:
        self.domain = domain.lower()
        self.federation = federation
        self._members: Dict[str, str] = {}
        self._timelines: Dict[str, Timeline] = {}
        self._inbox: Timeline = Timeline(f"{self.domain}/inbox")
        self._contents: Dict[str, FederatedContent] = {}
        self._follows: Dict[str, List[str]] = {}
        self._content_counter = itertools.count(1)
        self.media_server = MediaServer(f"{self.domain} media")
        self.media_server.add_container("family", "Family album")
        federation.directory.register_node(self)
        federation.keys.register(self.domain, signing_key)
        federation.ssdp.advertise(self.media_server)

    # ------------------------------------------------------------------
    # Members
    # ------------------------------------------------------------------
    def add_member(self, username: str, full_name: str) -> str:
        """Each family member gets an account; returns the acct URI."""
        if username in self._members:
            raise ValueError(f"member exists: {username}")
        self._members[username] = full_name
        self._timelines[username] = Timeline(self.acct(username))
        self._follows[username] = []
        return self.acct(username)

    def acct(self, username: str) -> str:
        return f"acct:{username}@{self.domain}"

    def has_member(self, username: str) -> bool:
        return username in self._members

    def member_full_name(self, username: str) -> str:
        return self._members[username]

    def members(self) -> List[str]:
        return sorted(self._members)

    # ------------------------------------------------------------------
    # Content publication
    # ------------------------------------------------------------------
    def publish(
        self,
        username: str,
        title: str,
        media_url: str,
        published: int,
    ) -> FederatedContent:
        if username not in self._members:
            raise KeyError(f"unknown member: {username}")
        content_id = next(self._content_counter)
        url = f"https://{self.domain}/content/{content_id}"
        content = FederatedContent(
            url=url,
            author=self.acct(username),
            title=title,
            media_url=media_url,
            published=published,
        )
        self._contents[url] = content
        activity = Activity(
            actor=self.acct(username),
            verb="post",
            object_id=url,
            published=published,
            summary=title,
        )
        self._timelines[username].push(activity)
        self.media_server.add_item(
            "family",
            MediaItem(
                item_id=f"item-{content_id}",
                title=title,
                media_url=media_url,
            ),
        )
        self.federation.hub.publish(
            self.topic(username),
            {
                "activity": activity.to_json(),
                "media_url": media_url,
                "url": url,
            },
        )
        return content

    def topic(self, username: str) -> str:
        return f"https://{self.domain}/feeds/{username}"

    def content(self, url: str) -> FederatedContent:
        if url not in self._contents:
            raise KeyError(f"no content at {url}")
        return self._contents[url]

    def contents(self) -> List[FederatedContent]:
        return list(self._contents.values())

    # ------------------------------------------------------------------
    # Following across nodes
    # ------------------------------------------------------------------
    def follow(self, username: str, remote_acct: str) -> None:
        """Subscribe ``username`` to a remote member's updates."""
        if not self.federation.directory.validate(remote_acct):
            raise WebFingerError(f"cannot validate {remote_acct}")
        account = parse_account(remote_acct)
        remote = self.federation.directory.node_for(account.domain)
        self.federation.hub.subscribe(
            subscriber_id=f"{self.acct(username)}",
            topic=remote.topic(account.user),
            callback=self._receive_notification,
            verify=lambda challenge: challenge,
        )
        self._follows[username].append(account.acct)

    def follows(self, username: str) -> List[str]:
        return list(self._follows.get(username, []))

    def _receive_notification(self, topic: str, payload) -> None:
        self._inbox.push(Activity.from_json(payload["activity"]))

    def home_timeline(self, limit: Optional[int] = None) -> List[Activity]:
        """Local members' activities merged with followed remote ones."""
        return merge_timelines(
            list(self._timelines.values()) + [self._inbox], limit=limit
        )

    def timeline(self, username: str) -> Timeline:
        return self._timelines[username]

    # ------------------------------------------------------------------
    # Salmon replies
    # ------------------------------------------------------------------
    def comment(
        self,
        username: str,
        content_url: str,
        text: str,
        published: int,
    ) -> Envelope:
        """Reply to content hosted anywhere in the federation; the slap
        swims upstream to the hosting node."""
        slap = Slap(
            author=self.acct(username),
            in_reply_to=content_url,
            content=text,
            published=published,
        )
        envelope = sign_slap(slap, self.domain, self.federation.keys)
        target_domain = content_url.split("/")[2]
        target = self.federation.directory.node_for(target_domain)
        target.receive_slap(envelope)
        return envelope

    def receive_slap(self, envelope: Envelope) -> None:
        slap = verify_envelope(envelope, self.federation.keys)
        if slap.in_reply_to not in self._contents:
            raise SalmonError(
                f"no such content: {slap.in_reply_to}"
            )
        self._contents[slap.in_reply_to].comments.append(slap)

    # ------------------------------------------------------------------
    # FOAF + OEmbed endpoints
    # ------------------------------------------------------------------
    def foaf_graph(self) -> Graph:
        """The node's FOAF document: members and their relationships
        (including cross-network foaf:knows via acct URIs)."""
        g = Graph()
        for username, full_name in self._members.items():
            person = URIRef(
                f"https://{self.domain}/people/{username}"
            )
            g.add((person, RDF.type, FOAF.Person))
            g.add((person, FOAF.nick, Literal(username)))
            g.add((person, FOAF.name, Literal(full_name)))
            g.add((person, FOAF.account, URIRef(self.acct(username))))
            for remote in self._follows.get(username, ()):
                g.add((person, FOAF.knows, URIRef(remote)))
        return g

    def oembed(self, url: str) -> dict:
        if url not in self._contents:
            raise OEmbedError(f"unknown content: {url}")
        content = self._contents[url]
        username = content.author.split(":", 1)[1].split("@", 1)[0]
        return photo_response(
            url=url,
            title=content.title,
            author=self._members.get(username, username),
            provider=self.domain,
            media_url=content.media_url,
        )


class Federation:
    """Shared infrastructure: directory, hub, keys, SSDP."""

    def __init__(self) -> None:
        self.directory = WebFingerDirectory()
        self.hub = Hub()
        self.keys = KeyDirectory()
        self.ssdp = SsdpRegistry()

    def create_node(self, domain: str, signing_key: bytes
                    ) -> FederatedNode:
        return FederatedNode(domain, self, signing_key)
