"""The mobile interface flow (paper §4, Figures 2–4).

A user opens the mobile web interface near the Mole Antonelliana. The
search box is AJAX-debounced (2 seconds after the last keystroke); each
fired query shows candidate LOD resources; tapping a result lists the
associated content; tapping "About" renders the LOD mashup — city
abstract, nearby restaurants, tourist attractions and other UGC.

Run with::

    python examples/mobile_search.py
"""

from repro.core import run_mashup
from repro.platform import (
    Capture,
    Debouncer,
    Platform,
    SearchInterface,
)
from repro.sparql import Point
from repro.workloads import WorkloadConfig, generate_workload, \
    populate_platform

USER_POSITION = Point(7.6931, 45.0691)  # standing by the Mole


def main() -> None:
    platform = Platform()
    workload = generate_workload(
        WorkloadConfig(n_users=6, n_contents=40, cities=("Turin",),
                       seed=7)
    )
    populate_platform(platform, workload)
    search = SearchInterface(platform.union_graph(), platform.contents())

    # --- Figure 2: the search box, with geolocation ---------------------
    print("mobile interface opened; location acquired:",
          USER_POSITION.wkt())

    # --- the 2-second AJAX debounce ---------------------------------------
    debouncer = Debouncer()
    keystrokes = [("m", 0.0), ("mo", 0.4), ("mol", 0.8), ("mole", 1.2)]
    for text, at in keystrokes:
        debouncer.keystroke(text, at)
    query = debouncer.poll(3.3)  # 2.1s after the last keystroke
    print(f"\nquery fired after debounce: {query!r}")

    # --- Figure 3: candidate results --------------------------------------
    suggestions = search.suggest(query, user_point=USER_POSITION,
                                 limit=5)
    print("candidate resources:")
    for suggestion in suggestions:
        print(f"  {suggestion.label:30s} {suggestion.resource}")

    # --- Figure 4: content list for the selected resource ------------------
    selected = suggestions[0]
    print(f"\nselected: {selected.label}")
    items = search.content_for_resource(selected.resource,
                                        radius_km=0.3)
    print(f"{len(items)} associated content item(s):")
    for item in items[:5]:
        print(f"  #{item.pid} {item.title!r} by {item.owner}")

    # --- the About button: the LOD mashup ----------------------------------
    if items:
        pid = items[0].pid
        print(f"\n[About] mashup for content #{pid}:")
        view = run_mashup(platform.evaluator(), pid=pid, language="it")
        for kind in ("city", "restaurant", "tourism", "ugc"):
            sections = view[kind]
            if not sections:
                continue
            print(f"  {kind}:")
            for section in sections:
                line = f"    {section.label}"
                if section.description:
                    line += f" — {section.description[:60]}"
                print(line)


if __name__ == "__main__":
    main()
