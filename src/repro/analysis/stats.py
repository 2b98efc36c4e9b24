"""Graph statistics feeding the query planner's cardinality model.

:class:`GraphStatistics` is a one-pass summary of a live
:class:`~repro.rdf.Graph`: per-predicate triple counts and distinct
subject/object counts (via ``Graph.predicate_statistics``), per-class
instance counts from ``rdf:type``, and the bounding box of every
``geo:geometry`` WKT point. The same pass files every such point into
a fixed-cell spatial grid (:attr:`GraphStatistics.geo_grid`) — the
access path the executor probes instead of scanning all geometries when
a ``bif:st_intersects`` filter constrains them (what ``rdf_geo_fill``
gives the paper's Virtuoso); one probe's matches are estimated from the
grid's occupancy.

The estimation formulas are the classic System-R style ones: a triple
pattern with a concrete predicate starts from that predicate's triple
count and is divided by the distinct-subject (resp. distinct-object)
count for each additionally bound position; ``rdf:type`` with a
concrete class uses the exact class count. These are the only
cardinalities the planner has: the scan order is decided on them, and
EXPLAIN shows the estimates it used. Filters are not given a
selectivity. The counts a plan's order was decided on are its
:meth:`GraphStatistics.footprint`; a later snapshot keeps the plan while
they :meth:`~GraphStatistics.fits`.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Set, Tuple

from ..obs import get_registry
from ..rdf.graph import Graph
from ..rdf.namespace import GEO, RDF
from ..rdf.terms import BNode, Literal, Term, Variable
from ..sparql.algebra import PlanNode, ScanStep, walk
from ..sparql.ast import Expression, TermExpr, TriplePatternNode
from ..sparql.geo import Point, bounding_box, try_parse_point
from ..store.engine import cached_view, current_view

#: Edge of one spatial-grid cell in degrees: ~1.1 km of latitude, ~0.8 km
#: of longitude at 45°N. The paper's radii are 0.2–1 km, so a probe
#: touches 1–9 cells; a finer grid multiplies empty-cell lookups for the
#: 1 km radius, a coarser one hands the exact filter a whole district.
GEO_CELL_DEGREES = 0.01

#: One indexed geometry: (subject, geometry term, longitude, latitude).
GeoEntry = Tuple[Term, Term, float, float]
GeoCell = Tuple[int, int]

#: How far a count a plan was ordered on may move, as a factor either
#: way, before a later snapshot plans the query again
#: (:meth:`GraphStatistics.fits`). A count that appears or disappears
#: always counts as moved.
PLAN_DRIFT = 2.0


class GraphStatistics:
    """Cardinality statistics collected from a graph: a derived view
    (:mod:`repro.store.engine`), carried by every commit on a store's
    union and cached against any other graph's change fingerprint
    (:meth:`cached`)."""

    def __init__(
        self,
        total: int,
        predicates: Dict[Term, Tuple[int, int, int]],
        class_counts: Dict[Term, int],
        bbox: Optional[Tuple[float, float, float, float]],
        geo_points: int,
        geo_grid: Optional[Dict[GeoCell, Tuple[GeoEntry, ...]]] = None,
    ) -> None:
        self.total = total
        self.predicates = predicates
        self.class_counts = class_counts
        #: (min_lon, min_lat, max_lon, max_lat) of geo:geometry points.
        self.bbox = bbox
        self.geo_points = geo_points
        #: Spatial grid over the same points: cell -> its entries. A
        #: geometry the ``bif:st_intersects`` filter would reject
        #: anyway (unparseable text, blank node) is not in it. Never
        #: mutated once published; :meth:`apply_delta` shares every
        #: cell a commit did not touch with the snapshot it came from.
        self.geo_grid: Dict[GeoCell, Tuple[GeoEntry, ...]] = (
            geo_grid if geo_grid is not None else {}
        )
        #: Grid probes answered on this snapshot, filled by the
        #: executor (``Evaluator._grid_hits``): ``(centre term,
        #: radius_km, geometry is the filter's first argument)`` ->
        #: ``(candidate count, exact hits)``. The count is ``None``
        #: when the centre has no box to probe; the hits — the
        #: ``(subject, geometry)`` pairs of the candidates that pass
        #: the exact ``bif:st_intersects``, in grid order — are
        #: ``None`` until a step takes the grid or join path for that
        #: centre. Never the candidate list itself. Every snapshot,
        #: :meth:`apply_delta`'s included, starts empty, so an entry
        #: always describes this grid. A value is a pure function of
        #: the snapshot and its key: readers racing on a key write
        #: equal values, so the memo is filled without a lock (at
        #: worst a count-only entry lands over one with hits, and the
        #: next grid step computes them again).
        self.probe_memo: Dict[
            Tuple[Term, float, bool],
            Tuple[Optional[int], Optional[Tuple[Tuple[Term, Term], ...]]],
        ] = {}
        #: The exact filter's outcome per geometry a probed scan read
        #: off the triple index for a bound subject instead of joining
        #: the grid (its centre has more candidates than solutions
        #: asking), filled by the executor
        #: (``repro.sparql.evaluator._tested``): ``(centre term,
        #: radius_km, geometry is the filter's first argument, geometry
        #: term)`` -> passed.
        #: Only geometries a step tested, never a candidate list; same
        #: lifetime and lock-free rule as :attr:`probe_memo`.
        self.probe_outcomes: Dict[Tuple[Term, float, bool, Term], bool] = {}
        #: Wall-clock time of collection (snapshot age accounting).
        self.collected_at: float = time.time()

    @property
    def age_seconds(self) -> float:
        """Seconds since this snapshot was collected."""
        return max(time.time() - self.collected_at, 0.0)

    @classmethod
    def collect(cls, graph: Graph) -> "GraphStatistics":
        # Hold the graph's write lock (when it has one) for the whole
        # scan: the statistics describe one state of the graph, not
        # one a concurrent writer changed halfway through.
        guard = getattr(graph, "_lock", None)
        with guard if guard is not None else nullcontext():
            predicates = graph.predicate_statistics()

            class_counts: Dict[Term, int] = {}
            for _, _, cls_term in graph.triples(
                (None, RDF.type, None)
            ):
                class_counts[cls_term] = (
                    class_counts.get(cls_term, 0) + 1
                )

            cells: Dict[GeoCell, List[GeoEntry]] = {}
            for subject, _, obj in graph.triples(
                (None, GEO.geometry, None)
            ):
                entry = _geo_entry(subject, obj)
                if entry is not None:
                    cells.setdefault(
                        _cell_of(entry[2], entry[3]), []
                    ).append(entry)
            grid = {
                cell: tuple(entries) for cell, entries in cells.items()
            }
            stats = cls(
                len(graph), predicates, class_counts,
                _grid_bbox(grid),
                sum(len(entries) for entries in grid.values()),
                grid,
            )
        # every collection is a (re)build of the planner's statistics;
        # a hot counter here exposes silent per-query re-scans (the
        # inc happens outside the graph lock: CC003)
        get_registry().counter(
            "repro_graph_stats_rebuilds_total",
            "GraphStatistics collection passes over a live graph.",
        ).inc()
        return stats

    @classmethod
    def cached(cls, graph: Graph) -> "GraphStatistics":
        """The statistics of ``graph`` through the one derived-view cache
        (:func:`repro.store.engine.cached_view`): carried by every commit
        on a store's union view, collected again on any other graph once
        its fingerprint moves."""
        return cached_view(graph, cls)

    @classmethod
    def current(cls, graph: Graph) -> Optional["GraphStatistics"]:
        """The statistics cached for ``graph`` while they describe it,
        else ``None``; never collects
        (:func:`repro.store.engine.current_view`)."""
        return current_view(graph, cls)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        added,
        removed,
        before,
        after,
    ) -> "GraphStatistics":
        """Statistics for ``after`` = this snapshot + a generation delta.

        ``added``/``removed`` are the union-effective triples of one
        committed generation (in op order; an add-then-remove of the
        same triple nets out). ``before``/``after`` only need
        ``triples(pattern)`` — the MVCC store passes pinned union
        views. Cost is O(delta): per-predicate triple counts and class
        counts adjust by op, distinct subject/object counts use one
        bounded membership probe per side of a (predicate, candidate)
        pair that the delta leaves open (a triple added and not removed
        is in ``after``, one removed and not added was in ``before``),
        the spatial grid rewrites only the cells a geometry triple of
        the delta falls in (every other cell is shared with this
        snapshot), and the geo bounding box is only recomputed — from the grid,
        not the graph — when a removed point sat on the current
        boundary. This is what replaces the full rebuild (and its
        ``repro_graph_stats_rebuilds_total`` tick) on every store
        commit.
        """
        predicates: Dict[Term, list] = {
            p: [t, s, o] for p, (t, s, o) in self.predicates.items()
        }
        class_counts = dict(self.class_counts)
        bbox = self.bbox
        points = self.geo_points
        bbox_stale = False
        #: grid cells this delta rewrites, as editable entry lists
        touched: Dict[GeoCell, List[GeoEntry]] = {}
        subject_candidates: Dict[Term, Set[Term]] = {}
        object_candidates: Dict[Term, Set[Term]] = {}

        def cell_entries(geo: GeoEntry) -> List[GeoEntry]:
            cell = _cell_of(geo[2], geo[3])
            entries = touched.get(cell)
            if entries is None:
                entries = touched[cell] = list(
                    self.geo_grid.get(cell, ())
                )
            return entries

        def entry(predicate: Term) -> list:
            found = predicates.get(predicate)
            if found is None:
                found = [0, 0, 0]
                predicates[predicate] = found
            return found

        rdf_type, geometry = RDF.type, GEO.geometry
        for s, p, o in added:
            entry(p)[0] += 1
            subject_candidates.setdefault(p, set()).add(s)
            object_candidates.setdefault(p, set()).add(o)
            if p == rdf_type:
                class_counts[o] = class_counts.get(o, 0) + 1
            elif p == geometry:
                geo = _geo_entry(s, o)
                if geo is not None:
                    cell_entries(geo).append(geo)
                    points += 1
                    lon, lat = geo[2], geo[3]
                    if bbox is None:
                        bbox = (lon, lat, lon, lat)
                    else:
                        bbox = (
                            min(bbox[0], lon), min(bbox[1], lat),
                            max(bbox[2], lon), max(bbox[3], lat),
                        )
        for s, p, o in removed:
            entry(p)[0] -= 1
            subject_candidates.setdefault(p, set()).add(s)
            object_candidates.setdefault(p, set()).add(o)
            if p == rdf_type:
                class_counts[o] = class_counts.get(o, 0) - 1
            elif p == geometry:
                geo = _geo_entry(s, o)
                if geo is not None:
                    entries = cell_entries(geo)
                    if geo in entries:
                        entries.remove(geo)
                        points -= 1
                    if bbox is not None and (
                        geo[2] in (bbox[0], bbox[2])
                        or geo[3] in (bbox[1], bbox[3])
                    ):
                        bbox_stale = True

        # the sides the delta answers: union-effective ops alternate per
        # triple, so a triple added and not removed is in ``after`` and
        # one removed and not added was in ``before``; only the rest is
        # probed
        in_after = set(added).difference(removed)
        in_before = set(removed).difference(added)
        after_sp = {(s, p) for s, p, _ in in_after}
        after_po = {(p, o) for _, p, o in in_after}
        before_sp = {(s, p) for s, p, _ in in_before}
        before_po = {(p, o) for _, p, o in in_before}
        for p, candidates in subject_candidates.items():
            counts = predicates.get(p)
            if counts is None:
                continue
            for s in candidates:
                counts[1] += (
                    1 if (s, p) in after_sp else _has(after, (s, p, None))
                ) - (
                    1 if (s, p) in before_sp else _has(before, (s, p, None))
                )
        for p, candidates in object_candidates.items():
            counts = predicates.get(p)
            if counts is None:
                continue
            for o in candidates:
                counts[2] += (
                    1 if (p, o) in after_po else _has(after, (None, p, o))
                ) - (
                    1 if (p, o) in before_po else _has(before, (None, p, o))
                )

        grid = self.geo_grid
        if touched:
            grid = dict(grid)  # shallow: untouched cells stay shared
            for cell, entries in touched.items():
                if entries:
                    grid[cell] = tuple(entries)
                else:
                    grid.pop(cell, None)
        if points == 0:
            bbox = None
        elif bbox_stale:
            # a boundary point left: one pass over the remaining
            # entries of the grid (no graph read, nothing re-parsed)
            bbox = _grid_bbox(grid)

        result = GraphStatistics(
            max(self.total + len(added) - len(removed), 0),
            {
                p: (t, max(s, 0), max(o, 0))
                for p, (t, s, o) in predicates.items()
                if t > 0
            },
            {c: n for c, n in class_counts.items() if n > 0},
            bbox,
            points,
            grid,
        )
        get_registry().counter(
            "repro_graph_stats_delta_updates_total",
            "Incremental GraphStatistics maintenance passes "
            "(O(delta) commits that avoided a full rebuild).",
        ).inc()
        return result

    # ------------------------------------------------------------------
    # Scan cardinality
    # ------------------------------------------------------------------
    def scan_cardinality(
        self,
        pattern: TriplePatternNode,
        bound: Set[str],
    ) -> float:
        """Estimated matches of ``pattern`` given already-bound variables.

        ``bound`` holds the *names* of variables bound by earlier scans;
        a bound variable position counts as a concrete term.
        """

        def is_bound(position: Term) -> bool:
            if isinstance(position, Variable):
                return str(position) in bound
            return True

        s_bound = is_bound(pattern.subject)
        o_bound = is_bound(pattern.object)

        if isinstance(pattern.predicate, Variable):
            if str(pattern.predicate) not in bound:
                estimate = float(self.total)
                n_preds = max(1, len(self.predicates))
                if s_bound:
                    estimate /= max(
                        1,
                        sum(e[1] for e in self.predicates.values())
                        / n_preds,
                    )
                if o_bound:
                    estimate /= max(
                        1,
                        sum(e[2] for e in self.predicates.values())
                        / n_preds,
                    )
                return max(estimate, 0.001)
            # predicate bound at runtime: average over predicates
            entry = (
                float(self.total) / max(1, len(self.predicates)),
                1.0,
                1.0,
            )
            return max(entry[0], 0.001)

        entry = self.predicates.get(pattern.predicate)
        if entry is None:
            return 0.0
        triples, distinct_s, distinct_o = entry

        if (
            pattern.predicate == RDF.type
            and not isinstance(pattern.object, Variable)
        ):
            count = float(self.class_counts.get(pattern.object, 0))
            if s_bound:
                count = min(count, 1.0)
            return count

        estimate = float(triples)
        if s_bound:
            estimate /= max(1, distinct_s)
        if o_bound:
            estimate /= max(1, distinct_o)
        return max(estimate, 0.001)

    # ------------------------------------------------------------------
    # Plan drift
    # ------------------------------------------------------------------
    def footprint(self, plan: PlanNode) -> Dict[tuple, Optional[tuple]]:
        """The counts the scan order of ``plan`` was decided on: per
        scan (and per IRI of a pinned scan's ``IN`` list) its
        predicate's ``(triples, distinct s, distinct o)`` — or the
        totals a variable predicate is estimated from — and the class
        count of a constant ``rdf:type`` object; with a grid probe, the
        points and the occupied cells. ``None`` for a predicate or a
        class this snapshot does not have."""
        read: Dict[tuple, Optional[tuple]] = {}
        for node in walk(plan):
            if not isinstance(node, ScanStep):
                continue
            patterns = [node.pattern]
            if node.pin is not None:
                patterns += [
                    _put(node.pattern, node.pin.variable, iri)
                    for iri in node.pin.iris
                ]
            for pattern in patterns:
                key = _count_key(pattern)
                read[key] = self._count(key)
                if pattern.predicate == RDF.type and not isinstance(
                    pattern.object, Variable
                ):
                    key = ("class", pattern.object)
                    read[key] = self._count(key)
            if node.probe is not None:
                read[("geo",)] = self._count(("geo",))
        return read

    def fits(self, footprint: Dict[tuple, Optional[tuple]]) -> bool:
        """True while every count of ``footprint`` (read off an older
        snapshot) is within :data:`PLAN_DRIFT` of this one's. A plan
        that still fits is kept: it may be slower than a new one, never
        wrong — every access path it picked checks at execution that it
        still applies."""
        for key, then in footprint.items():
            now = self._count(key)
            if then is None or now is None:
                if then is not now:
                    return False
                continue
            for old, new in zip(then, now, strict=True):
                if old > new * PLAN_DRIFT or new > old * PLAN_DRIFT:
                    return False
        return True

    def _count(self, key: tuple) -> Optional[tuple]:
        kind = key[0]
        if kind == "predicate":
            return self.predicates.get(key[1])
        if kind == "class":
            count = self.class_counts.get(key[1])
            return None if count is None else (count,)
        if kind == "geo":
            return self.geo_points, len(self.geo_grid)
        return self.total, len(self.predicates)

    # ------------------------------------------------------------------
    # Spatial grid
    # ------------------------------------------------------------------
    def geo_candidates(
        self, center: Point, radius_km: float
    ) -> Optional[List[GeoEntry]]:
        """Every indexed geometry that *may* lie within ``radius_km``
        of ``center``: the entries inside the circle's bounding box — a
        superset of the circle (see
        :func:`repro.sparql.geo.bounding_box`), which the caller still
        filters exactly. The cells the box touches are only how they
        are reached. ``None`` when the circle has no such box; the
        caller then scans.
        """
        box = bounding_box(center, radius_km)
        if box is None:
            return None
        min_lon, min_lat, max_lon, max_lat = box
        low_x, low_y = _cell_of(min_lon, min_lat)
        high_x, high_y = _cell_of(max_lon, max_lat)
        grid = self.geo_grid
        if (high_x - low_x + 1) * (high_y - low_y + 1) > len(grid):
            # a wide circle covers more cells than are occupied
            cells = (
                entries
                for (x, y), entries in grid.items()
                if low_x <= x <= high_x and low_y <= y <= high_y
            )
        else:
            cells = (
                grid.get((x, y), ())
                for x in range(low_x, high_x + 1)
                for y in range(low_y, high_y + 1)
            )
        return [
            entry
            for entries in cells
            for entry in entries
            if min_lon <= entry[2] <= max_lon
            and min_lat <= entry[3] <= max_lat
        ]

    def geo_probe_cardinality(self, radius_km: float) -> float:
        """Estimated matches of one grid probe of ``radius_km``.

        Cells its bounding box covers (at the data's mid latitude, at
        most the occupied ones) × mean points per occupied cell × the
        share of a box its inscribed circle fills. Read off the grid's
        own occupancy because user content clusters around a handful
        of places: spreading the points evenly over the data's bounding
        box is off by orders of magnitude for the paper's
        sub-kilometer radii.
        """
        if not self.geo_grid or self.bbox is None:
            return 0.001
        min_lon, min_lat, max_lon, max_lat = self.bbox
        box = bounding_box(
            Point((min_lon + max_lon) / 2.0, (min_lat + max_lat) / 2.0),
            radius_km,
        )
        if box is None:
            return float(self.geo_points)
        covered = min(
            ((box[2] - box[0]) / GEO_CELL_DEGREES + 1.0)
            * ((box[3] - box[1]) / GEO_CELL_DEGREES + 1.0),
            float(len(self.geo_grid)),
        )
        per_cell = self.geo_points / len(self.geo_grid)
        return max(covered * per_cell * math.pi / 4.0, 0.001)


def _count_key(pattern: TriplePatternNode) -> tuple:
    """What :meth:`GraphStatistics.scan_cardinality` reads for
    ``pattern``'s predicate: its own counts, or for a variable the
    totals."""
    if isinstance(pattern.predicate, Variable):
        return ("total",)
    return ("predicate", pattern.predicate)


def _put(
    pattern: TriplePatternNode, variable: Variable, term: Term
) -> TriplePatternNode:
    """``pattern`` with ``term`` in place of ``variable``."""
    return TriplePatternNode(*(
        term if position == variable else position
        for position in (pattern.subject, pattern.predicate, pattern.object)
    ))


def _geo_entry(subject: Term, geometry: Term) -> Optional[GeoEntry]:
    """The grid entry of one ``geo:geometry`` triple; ``None`` for a
    geometry ``bif:st_intersects`` rejects (blank node, not a POINT)."""
    if isinstance(geometry, BNode):
        return None
    point = try_parse_point(geometry)
    if point is None:
        return None
    return subject, geometry, point.longitude, point.latitude


def _cell_of(longitude: float, latitude: float) -> GeoCell:
    return (
        math.floor(longitude / GEO_CELL_DEGREES),
        math.floor(latitude / GEO_CELL_DEGREES),
    )


def _grid_bbox(
    grid: Dict[GeoCell, Tuple[GeoEntry, ...]]
) -> Optional[Tuple[float, float, float, float]]:
    """(min_lon, min_lat, max_lon, max_lat) over a grid's entries."""
    if not grid:
        return None
    longitudes = [e[2] for entries in grid.values() for e in entries]
    latitudes = [e[3] for entries in grid.values() for e in entries]
    return (
        min(longitudes), min(latitudes), max(longitudes), max(latitudes)
    )


def _has(graph, pattern) -> int:
    """1 when ``graph`` has any triple matching ``pattern``, else 0."""
    for _ in graph.triples(pattern):
        return 1
    return 0


def _constant_number(expr: Expression) -> Optional[float]:
    if isinstance(expr, TermExpr) and isinstance(expr.term, Literal):
        if expr.term.is_numeric:
            return float(expr.term.value)
    return None


__all__ = ["GraphStatistics"]
