"""OEmbed provider (paper §6.2).

"Multimedia content sharing, accomplished by using OEmbed." — given a
content URL hosted on a node, returns the standard OEmbed response dict
(type ``photo``, provider metadata, embed HTML).
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class OEmbedError(Exception):
    """Unknown content URL."""


def photo_response(
    url: str,
    title: str,
    author: str,
    provider: str,
    media_url: Optional[str] = None,
) -> Dict[str, Any]:
    """Build an OEmbed 1.0 ``photo`` response, 640×480."""
    width, height = 640, 480
    media = media_url or url
    return {
        "version": "1.0",
        "type": "photo",
        "title": title,
        "author_name": author,
        "provider_name": provider,
        "provider_url": f"https://{provider}",
        "url": media,
        "width": width,
        "height": height,
        "html": (
            f'<img src="{media}" width="{width}" height="{height}" '
            f'alt="{_attr_escape(title)}"/>'
        ),
    }


def _attr_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace('"', "&quot;")
        .replace("<", "&lt;").replace(">", "&gt;")
    )
