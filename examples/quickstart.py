"""Quickstart: share a photo, LODify it, retrieve it semantically.

Run with::

    python examples/quickstart.py
"""

from repro.core import geo_album
from repro.platform import Capture, Platform
from repro.sparql import Point

NEAR_MOLE = Point(7.6930, 45.0690)  # a few meters from the monument


def main() -> None:
    # 1. The platform, backed by the synthetic LOD corpus
    #    (DBpedia + Geonames + LinkedGeoData).
    platform = Platform()
    platform.register_user("walter", "Walter Goix")

    # 2. A mobile capture: title, tags, timestamp, GPS.
    item = platform.upload(
        Capture(
            username="walter",
            title="Tramonto sulla Mole Antonelliana",
            tags=("mole", "tramonto"),
            timestamp=1_325_376_000,
            point=NEAR_MOLE,
        )
    )
    print(f"uploaded content #{item.pid}: {item.title!r}")
    print("context tags:", ", ".join(item.context_tags))

    # 3. LODify: D2R lifting + automatic semantic annotation of what
    #    was uploaded, committed to the triple store as one delta.
    platform.synchronize_store()
    result = platform.annotation_result(item.pid)
    print(f"\ndetected language: {result.language}")
    for annotation in result.annotations:
        print(
            f"annotated {annotation.word!r} -> {annotation.resource} "
            f"({annotation.graph})"
        )

    # 4. Retrieve through a semantic virtual album (the paper's query 1).
    album = geo_album("Mole Antonelliana", radius_km=0.3)
    links = album.links(platform.evaluator())
    print(f"\nvirtual album '{album.name}': {len(links)} item(s)")
    for link in links:
        print("  ", link)


if __name__ == "__main__":
    main()
