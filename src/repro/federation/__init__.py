"""The paper's §6 future-work architecture: federated home-hosted
social nodes with WebFinger, FOAF, ActivityStreams, PubSubHubbub,
Salmon, OEmbed and UPnP media sharing."""

from .activitystreams import (
    Activity,
    ActivityError,
    Timeline,
    VERBS,
    merge_timelines,
)
from .node import Federation, FederatedContent, FederatedNode
from .oembed import OEmbedError, photo_response
from .pubsub import Hub, PubSubError
from .salmon import (
    Envelope,
    KeyDirectory,
    SalmonError,
    Slap,
    sign_slap,
    verify_envelope,
)
from .upnp import (
    Container,
    MediaItem,
    MediaServer,
    PhotoFrame,
    SsdpRegistry,
    UpnpError,
)
from .webfinger import (
    Account,
    Descriptor,
    WebFingerDirectory,
    WebFingerError,
    parse_account,
)

__all__ = [
    "Account",
    "Activity",
    "ActivityError",
    "Container",
    "Descriptor",
    "Envelope",
    "FederatedContent",
    "FederatedNode",
    "Federation",
    "Hub",
    "KeyDirectory",
    "MediaItem",
    "MediaServer",
    "OEmbedError",
    "PhotoFrame",
    "PubSubError",
    "SalmonError",
    "Slap",
    "SsdpRegistry",
    "Timeline",
    "UpnpError",
    "VERBS",
    "WebFingerDirectory",
    "WebFingerError",
    "merge_timelines",
    "parse_account",
    "photo_response",
    "sign_slap",
    "verify_envelope",
]
