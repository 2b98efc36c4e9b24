"""Location analysis (paper §2.2.1).

Whenever a content is received, its sender is identified and
contextualized. The provided output — location (GPS, civic address,
user-labeled place), nearby friends, and a guaranteed-valid Geonames
reference — is turned into RDF here. Nearby friends get *local*
descriptive resources (external Sindice-based linking exists but ships
disabled, as the paper turned it off over ambiguity/privacy concerns).

The module also implements the explicit POI association: the mobile app
sends ``poi:recs_id=N`` and this analyzer maps the referenced POI to a
DBpedia resource via SPARQL on its name, category and location —
excluding commercial categories (restaurants, hotels).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..context.gazetteer import Gazetteer
from ..context.models import Buddy, UserContext
from ..context.triple_tags import TripleTag
from ..lod.datasets import LodCorpus
from ..lod.world import PoiInfo
from ..rdf.graph import Triple
from ..rdf.namespace import DBPO, FOAF, OWL, RDF, TL_USER
from ..rdf.terms import Literal, URIRef
from ..resolvers.sindice import SindiceResolver
from ..sparql.evaluator import Evaluator
from ..sparql.geo import Point

#: Category → DBpedia ontology class used in the POI SPARQL query.
_POI_CATEGORY_CLASSES = {
    "monument": DBPO.Monument,
    "museum": DBPO.Museum,
    "church": DBPO.Church,
    "park": DBPO.Park,
    "station": DBPO.Station,
    "stadium": DBPO.Stadium,
    "fountain": DBPO.Monument,
}

#: Commercial categories excluded from the DBpedia analysis (§2.2.1).
COMMERCIAL_CATEGORIES = frozenset({"restaurant", "hotel"})

#: The POI must lie within this distance of the DBpedia resource (km).
_POI_MATCH_RADIUS_KM = 0.5


@dataclass
class LocationAnalysis:
    """RDF-ready output of the location analysis for one content."""

    geonames_resource: Optional[URIRef] = None
    buddy_resources: List[URIRef] = field(default_factory=list)
    triples: List[Triple] = field(default_factory=list)
    poi_resource: Optional[URIRef] = None


class LocationAnalyzer:
    """Turns a :class:`UserContext` (and POI tags) into LOD links."""

    def __init__(
        self,
        corpus: LodCorpus,
        gazetteer: Optional[Gazetteer] = None,
        link_buddies_externally: bool = False,
    ) -> None:
        self.corpus = corpus
        self.gazetteer = gazetteer or Gazetteer()
        # The Sindice-based buddy linking the paper evaluated and then
        # turned off; kept implemented but default-disabled.
        self.link_buddies_externally = link_buddies_externally
        self._sindice = SindiceResolver(
            [corpus.dbpedia, corpus.geonames]
        )
        self._dbpedia_evaluator = Evaluator(corpus.dbpedia)

    # ------------------------------------------------------------------
    def analyze(
        self,
        context: UserContext,
        poi_tags: Tuple[TripleTag, ...] = (),
    ) -> LocationAnalysis:
        analysis = LocationAnalysis()
        if context.location is not None:
            analysis.geonames_resource = (
                context.location.geonames_resource
            )
        for buddy in context.buddies:
            resource, triples = self.buddy_resource(buddy)
            analysis.buddy_resources.append(resource)
            analysis.triples.extend(triples)
        for tag in poi_tags:
            if tag.namespace == "poi" and tag.predicate == "recs_id":
                resource = self.resolve_poi_tag(tag)
                if resource is not None:
                    analysis.poi_resource = resource
        return analysis

    # ------------------------------------------------------------------
    # Nearby friends
    # ------------------------------------------------------------------
    def buddy_resource(
        self, buddy: Buddy
    ) -> Tuple[URIRef, List[Triple]]:
        """A local descriptive RDF resource for a nearby friend."""
        resource = buddy.resource or TL_USER[buddy.username]
        triples: List[Triple] = [
            (resource, RDF.type, FOAF.Person),
            (resource, FOAF.nick, Literal(buddy.username)),
            (resource, FOAF.name, Literal(buddy.full_name)),
        ]
        for account in buddy.external_accounts:
            triples.append(
                (resource, FOAF.account, URIRef(account))
            )
        if self.link_buddies_externally:
            for candidate in self._sindice.resolve_term(buddy.full_name):
                triples.append(
                    (resource, OWL.sameAs, candidate.resource)
                )
        return resource, triples

    # ------------------------------------------------------------------
    # POI association
    # ------------------------------------------------------------------
    def resolve_poi_tag(self, tag: TripleTag) -> Optional[URIRef]:
        """``poi:recs_id=N`` → the matching DBpedia resource, or None."""
        try:
            recs_id = int(tag.value)
        except ValueError:
            return None
        poi = self.gazetteer.poi_by_recs_id(recs_id)
        if poi is None:
            return None
        return self.resolve_poi(poi)

    def resolve_poi(self, poi: PoiInfo) -> Optional[URIRef]:
        """Identify the DBpedia resource for a provider POI via SPARQL
        on name, category and location (§2.2.1)."""
        if poi.category in COMMERCIAL_CATEGORIES:
            return None  # commercial categories are excluded
        category_class = _POI_CATEGORY_CLASSES.get(poi.category)
        if category_class is None:
            return None
        label = poi.labels.get("en") or next(iter(poi.labels.values()))
        # the centre is written as a literal, not bif:st_point(lon, lat):
        # the planner probes the geo grid only around a constant geometry
        centre = Point(poi.longitude, poi.latitude).to_literal().n3()
        query = f"""
            SELECT DISTINCT ?poi WHERE {{
              ?poi rdfs:label ?label .
              ?poi a <{category_class}> .
              ?poi geo:geometry ?geo .
              FILTER(lcase(str(?label)) = "{label.lower()}") .
              FILTER(bif:st_intersects(?geo, {centre},
                     {_POI_MATCH_RADIUS_KM})) .
            }}
        """
        result = self._dbpedia_evaluator.evaluate(query)
        if len(result) == 1:
            return result.first("poi")
        return None
