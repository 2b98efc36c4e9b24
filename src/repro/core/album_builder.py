"""Fluent construction of semantic virtual albums.

§2.3: "A virtual album is a collection of multimedia objects retrieved
dynamically by applying several complex search conditions over our data
storage [...] SPARQL is used to express queries across several datasets
and its expressiveness helps creating 'complex' queries that are not
allowed by the traditional keyword search."

:class:`AlbumBuilder` is the programmatic face of that expressiveness:
criteria compose freely and compile to one SPARQL query.

Example::

    album = (AlbumBuilder("weekend in Turin")
             .near_label("Mole Antonelliana", lang="it", radius_km=0.5)
             .by_friend_of("oscar")
             .min_rating(3)
             .about_concept(DBPR.Mole_Antonelliana)
             .taken_between(t0, t1)
             .order_by_rating()
             .limit(20)
             .build())
"""

from __future__ import annotations

from typing import List, Optional

from ..rdf.terms import Literal, URIRef
from ..sparql.geo import Point
from .albums import VirtualAlbum

_PREFIXES = """\
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX sioct: <http://rdfs.org/sioc/types#>
PREFIX comm: <http://comm.semanticweb.org/core.owl#>
PREFIX rev: <http://purl.org/stuff/rev#>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX geo: <http://www.w3.org/2003/01/geo/wgs84_pos#>
PREFIX dc: <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
"""


class AlbumBuilderError(ValueError):
    """Contradictory or incomplete album specification."""


class AlbumBuilder:
    """Composable criteria compiling to a virtual-album SPARQL query."""

    def __init__(self, name: str = "custom album") -> None:
        self.name = name
        self._patterns: List[str] = [
            "?resource a sioct:MicroblogPost .",
            "?resource comm:image-data ?link .",
        ]
        self._filters: List[str] = []
        self._order: Optional[str] = None
        self._limit: Optional[int] = None
        self._uses_geometry = False
        self._counter = 0

    def _fresh(self, stem: str) -> str:
        self._counter += 1
        return f"?{stem}{self._counter}"

    def _need_geometry(self) -> None:
        if not self._uses_geometry:
            self._patterns.append("?resource geo:geometry ?location .")
            self._uses_geometry = True

    # ------------------------------------------------------------------
    # Geo criteria
    # ------------------------------------------------------------------
    def near_label(
        self,
        label: str,
        lang: Optional[str] = "it",
        radius_km: float = 0.3,
    ) -> "AlbumBuilder":
        """Near a resource identified by its rdfs:label (the paper's
        monument anchor)."""
        self._need_geometry()
        anchor = self._fresh("anchor")
        anchor_geo = self._fresh("anchorGEO")
        literal = Literal(label, lang=lang)
        self._patterns.append(f"{anchor} rdfs:label {literal.n3()} .")
        self._patterns.append(f"{anchor} geo:geometry {anchor_geo} .")
        self._filters.append(
            f"FILTER(bif:st_intersects(?location, {anchor_geo}, "
            f"{radius_km}))"
        )
        return self

    def near_point(self, point: Point, radius_km: float) -> "AlbumBuilder":
        """Near explicit coordinates (the mobile client's position)."""
        self._need_geometry()
        self._filters.append(
            f"FILTER(bif:st_intersects(?location, "
            f'"{point.wkt()}", {radius_km}))'
        )
        return self

    # ------------------------------------------------------------------
    # Social criteria
    # ------------------------------------------------------------------
    def by_user(self, username: str) -> "AlbumBuilder":
        maker = self._fresh("maker")
        self._patterns.append(f"?resource foaf:maker {maker} .")
        self._patterns.append(
            f"{maker} foaf:name {Literal(username).n3()} ."
        )
        return self

    def by_friend_of(self, username: str) -> "AlbumBuilder":
        maker = self._fresh("maker")
        target = self._fresh("target")
        self._patterns.append(f"?resource foaf:maker {maker} .")
        self._patterns.append(
            f"{target} foaf:name {Literal(username).n3()} ."
        )
        self._patterns.append(f"{maker} foaf:knows {target} .")
        return self

    # ------------------------------------------------------------------
    # Rating / concept / time criteria
    # ------------------------------------------------------------------
    def min_rating(self, rating: float) -> "AlbumBuilder":
        self._ensure_rating_pattern()
        self._filters.append(f"FILTER(?points >= {rating})")
        return self

    def order_by_rating(self) -> "AlbumBuilder":
        self._ensure_rating_pattern()
        self._order = "ORDER BY DESC(?points)"
        return self

    def _ensure_rating_pattern(self) -> None:
        pattern = "?resource rev:rating ?points ."
        if pattern not in self._patterns:
            self._patterns.append(pattern)

    def about_concept(self, resource: URIRef) -> "AlbumBuilder":
        """Annotated (dcterms:subject) with a LOD concept."""
        self._patterns.append(
            f"?resource dcterms:subject <{resource}> ."
        )
        return self

    def taken_between(self, start: int, end: int) -> "AlbumBuilder":
        if end < start:
            raise AlbumBuilderError("time window is inverted")
        pattern = "?resource dcterms:created ?created ."
        if pattern not in self._patterns:
            self._patterns.append(pattern)
        self._filters.append(
            f"FILTER(?created >= {start} && ?created <= {end})"
        )
        return self

    def titled_like(self, words: str) -> "AlbumBuilder":
        """Full-text condition on the title (Virtuoso magic predicate)."""
        pattern = "?resource dc:title ?title ."
        if pattern not in self._patterns:
            self._patterns.append(pattern)
        self._patterns.append(
            f"?title bif:contains {Literal(words).n3()} ."
        )
        return self

    def limit(self, n: int) -> "AlbumBuilder":
        if n < 1:
            raise AlbumBuilderError("limit must be >= 1")
        self._limit = n
        return self

    # ------------------------------------------------------------------
    def sparql(self) -> str:
        body = "\n  ".join(self._patterns + self._filters)
        tail = ""
        if self._order:
            tail += f"\n{self._order}"
        if self._limit is not None:
            tail += f"\nLIMIT {self._limit}"
        projection = "?link ?points" if any(
            "?points" in p for p in self._patterns
        ) else "?link"
        return (
            f"{_PREFIXES}\nSELECT DISTINCT {projection} WHERE {{\n"
            f"  {body}\n}}{tail}\n"
        )

    def lint(self, linter=None) -> List[object]:
        """Diagnostics for the compiled query (no evaluation)."""
        from ..analysis import SparqlLinter

        if linter is None:
            linter = SparqlLinter.default()
        return linter.lint(self.sparql(), name=self.name)

    def build(self) -> VirtualAlbum:
        """Compile to a :class:`VirtualAlbum`."""
        return VirtualAlbum(name=self.name, query=self.sparql())
