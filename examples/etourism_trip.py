"""The paper's eTourism scenario, end to end.

Three users spend a day in Turin. Their photos are contextualized,
automatically annotated against Linked Open Data, and then retrieved
through the three semantic virtual albums of §2.3 — including the
social and rating filters — exactly as the paper walks through them.

Run with::

    python examples/etourism_trip.py
"""

from repro.core import geo_album, rated_album, social_album
from repro.platform import Capture, Platform
from repro.sparql import Point

NEAR_MOLE = Point(7.6930, 45.0690)
NEAR_MOLE_2 = Point(7.6938, 45.0695)
PERIPHERY = Point(7.6500, 45.0300)


def show_pipeline(platform: Platform, pid: int) -> None:
    """Print the Figure 1 pipeline stages for one content."""
    result = platform.annotation_result(pid)
    print(f"  title      : {result.title!r}")
    print(f"  language   : {result.language}")
    print(f"  NP lemmas  : {result.np_lemmas}")
    print(f"  tf words   : {result.frequency_words}")
    print(f"  word list  : {result.words}")
    for word in result.words:
        outcome = result.outcome_for(word)
        if outcome is None:
            continue
        if outcome.annotated:
            print(f"    {word!r} -> {outcome.chosen.resource} "
                  f"[{outcome.chosen.graph}]")
        else:
            print(f"    {word!r} -> ({outcome.reason.value})")


def main() -> None:
    platform = Platform()
    platform.register_user("oscar", "Oscar Rodriguez")
    platform.register_user("walter", "Walter Goix")
    platform.register_user("carmen", "Carmen Criminisi")
    platform.add_friendship("oscar", "walter")

    uploads = [
        Capture("walter", "Tramonto sulla Mole Antonelliana",
                ("mole", "tramonto"), 1_325_376_000, NEAR_MOLE),
        Capture("carmen", "Mole Antonelliana by night",
                ("night",), 1_325_376_600, NEAR_MOLE_2),
        Capture("walter", "periferia di Torino", (),
                1_325_380_000, PERIPHERY),
        Capture("walter", "another Mole picture", ("mole",),
                1_325_390_000, NEAR_MOLE),
    ]
    for capture in uploads:
        platform.upload(capture)
    for pid, rating in ((1, 5.0), (2, 3.0), (3, 4.0), (4, 2.0)):
        platform.rate(pid, rating)

    platform.synchronize_store()

    print("=" * 70)
    print("Automatic semantic annotation (Figure 1 pipeline)")
    print("=" * 70)
    for item in platform.contents():
        print(f"\ncontent #{item.pid} by {item.owner}")
        show_pipeline(platform, item.pid)

    evaluator = platform.evaluator()
    print("\n" + "=" * 70)
    print("Semantic virtual albums (§2.3)")
    print("=" * 70)

    q1 = geo_album("Mole Antonelliana", radius_km=0.3)
    print(f"\n[Q1] {q1.name}")
    for link in q1.links(evaluator):
        print("   ", link)

    q2 = social_album("Mole Antonelliana", friend_of="oscar")
    print(f"\n[Q2] {q2.name}")
    for link in q2.links(evaluator):
        print("   ", link)

    q3 = rated_album("Mole Antonelliana", friend_of="oscar")
    print(f"\n[Q3] {q3.name} (rating-ordered)")
    for row in q3.fetch(evaluator):
        print(f"    {row['link'].lexical}  rating={row['points'].value}")


if __name__ == "__main__":
    main()
