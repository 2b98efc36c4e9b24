"""Deterministic synthetic UGC workloads.

Generates the populations the benchmarks run on: users with a friendship
graph, and geo-tagged captures around the synthetic world's cities with
titles in five languages. Everything is driven by a seeded RNG, so a
given configuration always produces the same workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..lod.world import CITIES, POIS
from ..platform.models import Capture
from ..sparql.geo import Point

#: Title templates per language; ``{poi}`` / ``{city}`` are substituted.
_TEMPLATES: Dict[str, List[str]] = {
    "en": [
        "Sunset over {poi}",
        "a beautiful view of {poi} today",
        "walking around {city} with friends",
        "my trip to {city}, visiting {poi}",
        "amazing light on {poi} this evening",
    ],
    "it": [
        "Tramonto sulla {poi}",
        "una bellissima vista di {poi} oggi",
        "passeggiata per {city} con gli amici",
        "il mio viaggio a {city}, visita a {poi}",
        "una luce stupenda su {poi} stasera",
    ],
    "fr": [
        "Coucher de soleil sur {poi}",
        "une belle vue de {poi} aujourd'hui",
        "promenade dans {city} avec des amis",
        "mon voyage à {city}, visite de {poi}",
    ],
    "es": [
        "Atardecer sobre {poi}",
        "una vista hermosa de {poi} hoy",
        "paseo por {city} con amigos",
        "mi viaje a {city}, visita a {poi}",
    ],
    "de": [
        "Sonnenuntergang über {poi}",
        "eine schöne Aussicht auf {poi} heute",
        "Spaziergang durch {city} mit Freunden",
        "meine Reise nach {city}, Besuch von {poi}",
    ],
}

_PLAIN_TAGS = [
    "sunset", "night", "holiday", "friends", "architecture", "food",
    "monument", "square", "walk", "museum", "view", "travel",
]


@dataclass
class WorkloadConfig:
    """Knobs of the synthetic workload."""

    n_users: int = 10
    n_contents: int = 100
    seed: int = 42
    cities: Sequence[str] = ("Turin",)
    scatter_km: float = 1.5         # content scatter around city center
    start_timestamp: int = 1_325_376_000  # 2012-01-01, the paper's era


#: Average friendships per user.
FRIEND_DEGREE = 4

#: The title languages, drawn uniformly.
LANGUAGES = ["en", "it", "fr", "es", "de"]

#: The share of contents that get a rating.
RATED_FRACTION = 0.8


@dataclass
class Workload:
    """A generated population, platform-agnostic."""

    usernames: List[str]
    full_names: Dict[str, str]
    friendships: List[Tuple[str, str]]
    captures: List[Capture]
    ratings: Dict[int, float] = field(default_factory=dict)  # index → r


_FIRST_NAMES = [
    "oscar", "walter", "carmen", "fabio", "laura", "marco", "anna",
    "paolo", "elena", "luca", "sara", "dario", "giulia", "pietro",
    "chiara", "nadia", "bruno", "irene", "mario", "silvia",
]


def generate_workload(config: WorkloadConfig) -> Workload:
    """Build a deterministic workload from ``config``."""
    rng = random.Random(config.seed)
    cities = [c for c in CITIES if c.key in set(config.cities)]
    if not cities:
        raise ValueError(f"no known cities among {config.cities!r}")

    usernames = [
        _FIRST_NAMES[i] if i < len(_FIRST_NAMES)
        else f"user{i}"
        for i in range(config.n_users)
    ]
    full_names = {
        name: name.capitalize() + " " + chr(ord("A") + i % 26) + "."
        for i, name in enumerate(usernames)
    }

    friendships: List[Tuple[str, str]] = []
    seen_pairs = set()
    target_edges = config.n_users * FRIEND_DEGREE // 2
    attempts = 0
    while len(friendships) < target_edges and attempts < target_edges * 20:
        attempts += 1
        a, b = rng.sample(usernames, 2)
        pair = (min(a, b), max(a, b))
        if pair not in seen_pairs:
            seen_pairs.add(pair)
            friendships.append(pair)

    captures: List[Capture] = []
    ratings: Dict[int, float] = {}
    timestamp = config.start_timestamp
    for index in range(config.n_contents):
        city = rng.choice(cities)
        language = rng.choice(LANGUAGES)
        templates = _TEMPLATES.get(language, _TEMPLATES["en"])
        template = rng.choice(templates)
        city_pois = [
            p for p in POIS if p.city == city.key and not p.commercial
        ]
        poi = rng.choice(city_pois) if city_pois else None
        poi_label = ""
        if poi is not None:
            poi_label = poi.labels.get(language) or poi.labels.get(
                "en"
            ) or next(iter(poi.labels.values()))
        city_label = city.labels.get(language, city.labels["en"])
        title = template.format(poi=poi_label, city=city_label)

        if poi is not None and rng.random() < 0.7:
            anchor = Point(poi.longitude, poi.latitude)
        else:
            anchor = Point(city.longitude, city.latitude)
        point = _jitter(rng, anchor, config.scatter_km)

        tags = tuple(
            rng.sample(_PLAIN_TAGS, rng.randint(0, 3))
        )
        username = rng.choice(usernames)
        timestamp += rng.randint(30, 600)
        captures.append(
            Capture(
                username=username,
                title=title,
                tags=tags,
                timestamp=timestamp,
                point=point,
            )
        )
        if rng.random() < RATED_FRACTION:
            ratings[index] = float(rng.randint(1, 5))

    return Workload(
        usernames=usernames,
        full_names=full_names,
        friendships=friendships,
        captures=captures,
        ratings=ratings,
    )


def _jitter(rng: random.Random, anchor: Point, scatter_km: float) -> Point:
    # ~111 km per degree of latitude; clamp into valid ranges
    delta_deg = scatter_km / 111.0
    longitude = anchor.longitude + rng.uniform(-delta_deg, delta_deg)
    latitude = anchor.latitude + rng.uniform(-delta_deg, delta_deg)
    return Point(
        max(-180.0, min(180.0, longitude)),
        max(-90.0, min(90.0, latitude)),
    )


def populate_platform(platform, workload: Workload) -> List[int]:
    """Load a workload into a :class:`repro.platform.Platform`.

    Returns the created content pids, parallel to ``workload.captures``.
    """
    for username in workload.usernames:
        platform.register_user(
            username, workload.full_names[username]
        )
    for a, b in workload.friendships:
        platform.add_friendship(a, b)
    pids: List[int] = []
    for index, capture in enumerate(workload.captures):
        item = platform.upload(capture)
        pids.append(item.pid)
        rating = workload.ratings.get(index)
        if rating is not None:
            platform.rate(item.pid, rating)
    return pids
