"""Gazetteer: GPS → civil address / nearest city / place labels.

Stands in for the paper's locationing service ("our platform converts
GPS coordinates whenever available from the device into civil
addresses"). Backed by the same synthetic world as the LOD datasets, so
the Geonames reference attached to a location is guaranteed to resolve —
the property the paper relies on ("which validity is guaranteed by the
locationing process itself").
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..lod.world import CITIES, POIS, CityInfo, PoiInfo
from ..lod.geonames import geonames_uri
from ..rdf.terms import URIRef
from ..sparql.geo import Point, haversine_km
from .models import CivicAddress


class Gazetteer:
    """Nearest-city and nearest-POI lookups over the synthetic world."""

    def __init__(
        self,
        cities: Optional[List[CityInfo]] = None,
        pois: Optional[List[PoiInfo]] = None,
    ) -> None:
        self.cities = list(CITIES if cities is None else cities)
        self.pois = list(POIS if pois is None else pois)
        # each place's Point, built (and range-checked) once
        self._located_cities: List[Tuple[CityInfo, Point]] = [
            (city, Point(city.longitude, city.latitude))
            for city in self.cities
        ]
        self._located_pois: List[Tuple[PoiInfo, Point]] = [
            (poi, Point(poi.longitude, poi.latitude)) for poi in self.pois
        ]

    # ------------------------------------------------------------------
    def nearest_city(self, point: Point) -> Tuple[CityInfo, float]:
        """The nearest city and its distance in km (the first listed of
        equidistant cities)."""
        best: Optional[Tuple[CityInfo, float]] = None
        for city, at in self._located_cities:
            distance = haversine_km(point, at)
            if best is None or distance < best[1]:
                best = (city, distance)
        if best is None:
            raise ValueError("gazetteer has no cities")
        return best

    def reverse_geocode(self, point: Point) -> CivicAddress:
        """GPS → civil address (street resolved from the nearest POI when
        within walking distance)."""
        return self._address(point, self.nearest_city(point)[0])

    def geonames_reference(self, point: Point) -> URIRef:
        """The city-level Geonames resource for ``point`` (§2.2.1)."""
        return geonames_uri(self.nearest_city(point)[0].geonames_id)

    def locate(self, point: Point) -> Tuple[CivicAddress, URIRef]:
        """:meth:`reverse_geocode` and :meth:`geonames_reference` of
        ``point`` from one nearest-city search."""
        city, _ = self.nearest_city(point)
        return self._address(point, city), geonames_uri(city.geonames_id)

    def _address(self, point: Point, city: CityInfo) -> CivicAddress:
        street: Optional[str] = None
        poi = self.nearest_poi(point, max_distance_km=0.25)
        if poi is not None:
            label = poi.labels.get("en") or next(iter(poi.labels.values()))
            street = f"near {label}"
        return CivicAddress(
            city=city.labels["en"], country=city.country, street=street
        )

    # ------------------------------------------------------------------
    def nearest_poi(
        self,
        point: Point,
        max_distance_km: float = 1.0,
        exclude_commercial: bool = False,
    ) -> Optional[PoiInfo]:
        """The nearest POI within ``max_distance_km`` (None if nothing;
        the last listed of equidistant POIs)."""
        best: Optional[PoiInfo] = None
        best_distance = max_distance_km
        for poi, at in self._located_pois:
            if exclude_commercial and poi.commercial:
                continue
            distance = haversine_km(point, at)
            if distance <= best_distance:
                best = poi
                best_distance = distance
        return best

    def search_pois(
        self,
        point: Point,
        radius_km: float = 2.0,
        category: Optional[str] = None,
    ) -> List[Tuple[PoiInfo, float]]:
        """POIs within ``radius_km`` of ``point``, nearest first.

        This is the platform's POI search provider (the "Google Local"
        stand-in) that the mobile app queries when a user associates a
        content to a POI.
        """
        hits: List[Tuple[PoiInfo, float]] = []
        for poi, at in self._located_pois:
            if category is not None and poi.category != category:
                continue
            distance = haversine_km(point, at)
            if distance <= radius_km:
                hits.append((poi, distance))
        hits.sort(key=lambda item: item[1])
        return hits

    def poi_by_recs_id(self, recs_id: int) -> Optional[PoiInfo]:
        """Resolve the opaque ``poi:recs_id=N`` tag value to a POI.

        The platform assigns sequential ids over its provider list; we
        use the POI's position in the world list, 1-based.
        """
        if 1 <= recs_id <= len(self.pois):
            return self.pois[recs_id - 1]
        return None

    def recs_id_for(self, poi: PoiInfo) -> int:
        """Inverse of :meth:`poi_by_recs_id`."""
        return self.pois.index(poi) + 1
