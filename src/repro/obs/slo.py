"""Declarative SLOs evaluated against a metrics snapshot.

Concurrency: single-threaded

An :class:`SLOSpec` is a named list of :class:`Objective` rows — each
one binds a metric family from :class:`~repro.obs.metrics.
MetricsRegistry` to a target:

* ``latency`` / ``freshness`` — a quantile of a histogram family must
  stay at or below a threshold (seconds);
* ``error_rate`` — the ``status="error"`` share of a counter family
  must stay at or below a ratio;
* ``throughput`` — a histogram family's observation count divided by
  the run's wall-clock seconds must stay at or *above* a floor.

Evaluation (:func:`evaluate_slo`) runs over the plain-JSON
``registry.snapshot()`` structure, never the live registry, so the
same code judges an in-process load run and a ``--save-metrics`` file
loaded back hours later in CI. The verdict is an :class:`SLOReport`:
one :class:`ObjectiveResult` per objective with the observed value,
the target, the **burn** ratio (observed/target — how much of the
objective's budget the run consumed; >1.0 is a breach) and a pass/fail
flag, plus the overall verdict and a JSON form CI uploads as an
artifact.

Objectives with no matching series *fail* (``no data``) rather than
vacuously pass — a load run that never exercised an op, or a renamed
metric, must not look healthy. :func:`default_slo` is the spec the
``repro obs loadgen --slo`` smoke run and ``bench_loadgen`` guard
enforce; custom specs load from JSON via :meth:`SLOSpec.load`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "Objective",
    "ObjectiveResult",
    "SLOError",
    "SLOReport",
    "SLOSpec",
    "default_slo",
    "evaluate_slo",
    "quantile_from_series",
]

#: Objective kinds and the comparison direction they imply.
_KINDS = ("latency", "freshness", "error_rate", "throughput")


class SLOError(ValueError):
    """A malformed SLO spec or an unevaluable objective."""


@dataclass(frozen=True)
class Objective:
    """One service-level objective over one metric family."""

    name: str
    kind: str                   # latency|freshness|error_rate|throughput
    metric: str                 # metric family name in the snapshot
    threshold: float            # seconds / ratio / ops-per-second floor
    quantile: float = 0.95      # latency + freshness only
    labels: Mapping[str, str] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SLOError(
                f"unknown objective kind {self.kind!r} "
                f"(allowed: {', '.join(_KINDS)})"
            )
        if not 0.0 <= self.quantile <= 1.0:
            raise SLOError("objective quantile must be within [0, 1]")
        if self.threshold < 0:
            raise SLOError("objective threshold must be >= 0")

    def target_text(self) -> str:
        if self.kind in ("latency", "freshness"):
            return (
                f"p{round(self.quantile * 100)} <= "
                f"{self.threshold * 1000.0:g} ms"
            )
        if self.kind == "error_rate":
            return f"errors <= {self.threshold:.2%}"
        return f">= {self.threshold:g} op/s"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "metric": self.metric,
            "threshold": self.threshold,
            "quantile": self.quantile,
            "labels": dict(self.labels),
            "description": self.description,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "Objective":
        try:
            return Objective(
                name=str(data["name"]),
                kind=str(data["kind"]),
                metric=str(data["metric"]),
                threshold=float(data["threshold"]),
                quantile=float(data.get("quantile", 0.95)),
                labels={
                    str(k): str(v)
                    for k, v in dict(data.get("labels", {})).items()
                },
                description=str(data.get("description", "")),
            )
        except KeyError as exc:
            raise SLOError(f"objective missing field {exc}") from None


@dataclass(frozen=True)
class SLOSpec:
    """A named set of objectives, loadable from JSON."""

    name: str
    objectives: Tuple[Objective, ...]

    def __post_init__(self) -> None:
        if not self.objectives:
            raise SLOError(f"SLO spec {self.name!r} has no objectives")
        seen = set()
        for objective in self.objectives:
            if objective.name in seen:
                raise SLOError(
                    f"duplicate objective name {objective.name!r}"
                )
            seen.add(objective.name)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "objectives": [o.to_dict() for o in self.objectives],
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "SLOSpec":
        objectives = data.get("objectives")
        if not isinstance(objectives, list):
            raise SLOError("SLO spec needs an 'objectives' array")
        return SLOSpec(
            name=str(data.get("name", "unnamed")),
            objectives=tuple(
                Objective.from_dict(entry) for entry in objectives
            ),
        )

    @staticmethod
    def load(path: Union[str, Path]) -> "SLOSpec":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise SLOError(f"cannot load SLO spec {path}: {exc}") from exc
        return SLOSpec.from_dict(data)


@dataclass
class ObjectiveResult:
    """The judged outcome of one objective."""

    objective: Objective
    observed: Optional[float]   # None when no data matched
    ok: bool
    burn: Optional[float]       # observed budget share; > 1.0 breaches
    samples: int
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.objective.name,
            "kind": self.objective.kind,
            "metric": self.objective.metric,
            "target": self.objective.threshold,
            "target_text": self.objective.target_text(),
            "observed": self.observed,
            "ok": self.ok,
            "burn": self.burn,
            "samples": self.samples,
            "detail": self.detail,
        }


@dataclass
class SLOReport:
    """Structured pass/fail verdict over one metrics snapshot."""

    spec_name: str
    results: List[ObjectiveResult]
    wall_seconds: Optional[float] = None

    @property
    def passed(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def breaches(self) -> List[ObjectiveResult]:
        return [result for result in self.results if not result.ok]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec_name,
            "passed": self.passed,
            "wall_seconds": self.wall_seconds,
            "objectives": [result.to_dict() for result in self.results],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """A fixed-width verdict table, worst burn first."""
        lines = [
            f"SLO report: {self.spec_name} — "
            f"{'PASS' if self.passed else 'FAIL'}"
            f" ({len(self.results) - len(self.breaches)}/"
            f"{len(self.results)} objective(s) met)"
        ]
        header = (
            f"  {'objective':<22} {'target':<22} {'observed':>12} "
            f"{'burn':>6} {'n':>6}  verdict"
        )
        lines.append(header)
        ordered = sorted(
            self.results,
            key=lambda r: -(r.burn if r.burn is not None else math.inf),
        )
        for result in ordered:
            objective = result.objective
            if result.observed is None:
                observed = "-"
            elif objective.kind in ("latency", "freshness"):
                observed = f"{result.observed * 1000.0:.1f} ms"
            elif objective.kind == "error_rate":
                observed = f"{result.observed:.2%}"
            else:
                observed = f"{result.observed:.1f} op/s"
            burn = f"{result.burn:.2f}" if result.burn is not None else "-"
            verdict = "ok" if result.ok else "BREACH"
            if result.detail and not result.ok:
                verdict += f" ({result.detail})"
            lines.append(
                f"  {objective.name:<22} {objective.target_text():<22} "
                f"{observed:>12} {burn:>6} {result.samples:>6}  {verdict}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# snapshot arithmetic
# ----------------------------------------------------------------------
def _parse_edge(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def _labels_match(
    wanted: Mapping[str, str], labels: Mapping[str, str]
) -> bool:
    return all(labels.get(key) == value for key, value in wanted.items())


def _merge_histogram_series(
    series: List[Mapping[str, Any]],
) -> Tuple[List[Tuple[float, int]], int, float]:
    """Sum matching histogram children into one (edges, count, max)."""
    merged: Dict[float, int] = {}
    count = 0
    maximum = 0.0
    for entry in series:
        count += int(entry.get("count", 0))
        maximum = max(maximum, float(entry.get("max", 0.0)))
        for edge_text, bucket_count in entry.get("buckets", {}).items():
            edge = _parse_edge(edge_text)
            merged[edge] = merged.get(edge, 0) + int(bucket_count)
    return sorted(merged.items()), count, maximum


def quantile_from_series(
    series: List[Mapping[str, Any]], q: float
) -> Tuple[Optional[float], int]:
    """Bucket-interpolated quantile over snapshot histogram children.

    Mirrors :meth:`HistogramChild.quantile` (including the exact-max
    behavior at ``q == 1.0``) but runs on the JSON snapshot structure.
    Returns ``(estimate, total samples)``; the estimate is ``None``
    when no samples matched.
    """
    if not 0.0 <= q <= 1.0:
        raise SLOError("quantile must be within [0, 1]")
    buckets, total, maximum = _merge_histogram_series(series)
    if total == 0:
        return None, 0
    if q == 1.0:
        return maximum, total
    rank = q * total
    cumulative = 0
    previous_edge = 0.0
    for index, (edge, bucket_count) in enumerate(buckets):
        previous = cumulative
        cumulative += bucket_count
        if cumulative >= rank and bucket_count:
            lower = previous_edge
            upper = maximum if math.isinf(edge) else edge
            upper = max(min(upper, maximum), lower)
            fraction = (rank - previous) / bucket_count
            return lower + (upper - lower) * fraction, total
        if not math.isinf(edge):
            previous_edge = edge
    return maximum, total


def _histogram_series(
    snapshot: Mapping[str, Any], objective: Objective
) -> Tuple[Optional[List[Mapping[str, Any]]], str]:
    family = snapshot.get(objective.metric)
    if family is None:
        return None, f"metric {objective.metric!r} absent"
    if family.get("type") != "histogram":
        return None, f"metric {objective.metric!r} is not a histogram"
    matched = [
        entry for entry in family.get("series", [])
        if _labels_match(objective.labels, entry.get("labels", {}))
    ]
    if not matched:
        return None, "no series matched the label filter"
    return matched, ""


def _evaluate_quantile(
    snapshot: Mapping[str, Any], objective: Objective
) -> ObjectiveResult:
    matched, problem = _histogram_series(snapshot, objective)
    if matched is None:
        return ObjectiveResult(objective, None, False, None, 0, problem)
    observed, samples = quantile_from_series(matched, objective.quantile)
    if observed is None:
        return ObjectiveResult(
            objective, None, False, None, 0, "no data"
        )
    burn = (
        observed / objective.threshold if objective.threshold > 0
        else math.inf
    )
    return ObjectiveResult(
        objective, observed, observed <= objective.threshold,
        burn, samples,
    )


def _evaluate_error_rate(
    snapshot: Mapping[str, Any], objective: Objective
) -> ObjectiveResult:
    family = snapshot.get(objective.metric)
    if family is None:
        return ObjectiveResult(
            objective, None, False, None, 0,
            f"metric {objective.metric!r} absent",
        )
    total = 0.0
    errors = 0.0
    for entry in family.get("series", []):
        labels = entry.get("labels", {})
        if not _labels_match(objective.labels, labels):
            continue
        value = float(entry.get("value", 0.0))
        total += value
        if labels.get("status") == "error":
            errors += value
    if total == 0:
        return ObjectiveResult(objective, None, False, None, 0, "no data")
    observed = errors / total
    burn = (
        observed / objective.threshold if objective.threshold > 0
        else (math.inf if observed else 0.0)
    )
    return ObjectiveResult(
        objective, observed, observed <= objective.threshold,
        burn, int(total),
    )


def _evaluate_throughput(
    snapshot: Mapping[str, Any],
    objective: Objective,
    wall_seconds: Optional[float],
) -> ObjectiveResult:
    matched, problem = _histogram_series(snapshot, objective)
    if matched is None:
        return ObjectiveResult(objective, None, False, None, 0, problem)
    samples = sum(int(entry.get("count", 0)) for entry in matched)
    if wall_seconds is None or wall_seconds <= 0:
        return ObjectiveResult(
            objective, None, False, None, samples,
            "wall-clock seconds unknown",
        )
    observed = samples / wall_seconds
    burn = (
        objective.threshold / observed if observed > 0 else math.inf
    )
    return ObjectiveResult(
        objective, observed, observed >= objective.threshold,
        burn, samples,
    )


def evaluate_slo(
    spec: SLOSpec,
    snapshot: Mapping[str, Any],
    wall_seconds: Optional[float] = None,
) -> SLOReport:
    """Judge every objective of ``spec`` against ``snapshot``.

    ``snapshot`` is the structure :meth:`MetricsRegistry.snapshot`
    returns (or the same loaded back from JSON); ``wall_seconds`` is
    required for ``throughput`` objectives to have a denominator.
    """
    results: List[ObjectiveResult] = []
    for objective in spec.objectives:
        if objective.kind in ("latency", "freshness"):
            results.append(_evaluate_quantile(snapshot, objective))
        elif objective.kind == "error_rate":
            results.append(_evaluate_error_rate(snapshot, objective))
        else:
            results.append(
                _evaluate_throughput(snapshot, objective, wall_seconds)
            )
    return SLOReport(spec.name, results, wall_seconds)


def default_slo() -> SLOSpec:
    """The stock spec for ``repro.workloads.loadgen`` runs.

    Targets are deliberately loose enough for a shared CI runner at the
    smoke scale (tens of ops, 2–4 workers) while still catching order-
    of-magnitude regressions: interactive reads must stay sub-second at
    p95, the write path sub-250 ms at p99, upload→queryable freshness
    within 15 s, and the run must not crawl or error.
    """
    return SLOSpec(
        name="loadgen-default",
        objectives=(
            Objective(
                name="search_p95", kind="latency",
                metric="repro_loadgen_op_seconds",
                labels={"op": "search"}, quantile=0.95, threshold=0.50,
                description="incremental search suggestion latency",
            ),
            Objective(
                name="browse_p95", kind="latency",
                metric="repro_loadgen_op_seconds",
                labels={"op": "browse"}, quantile=0.95, threshold=0.50,
                description="web pagination latency",
            ),
            Objective(
                name="album_p95", kind="latency",
                metric="repro_loadgen_op_seconds",
                labels={"op": "album"}, quantile=0.95, threshold=2.0,
                description="virtual-album SPARQL latency",
            ),
            Objective(
                name="mashup_p95", kind="latency",
                metric="repro_loadgen_op_seconds",
                labels={"op": "mashup"}, quantile=0.95, threshold=4.0,
                description="About-mashup SPARQL latency",
            ),
            Objective(
                name="store_write_p99", kind="latency",
                metric="repro_loadgen_op_seconds",
                labels={"op": "store_write"}, quantile=0.99,
                threshold=0.25,
                description="QuadStore.insert autocommit write latency",
            ),
            Objective(
                name="upload_p95", kind="latency",
                metric="repro_loadgen_op_seconds",
                labels={"op": "upload"}, quantile=0.95, threshold=10.0,
                description="upload + annotate + store sync latency",
            ),
            Objective(
                name="freshness_p95", kind="freshness",
                metric="repro_loadgen_freshness_seconds",
                quantile=0.95, threshold=15.0,
                description="upload-to-queryable staleness window",
            ),
            Objective(
                name="error_rate", kind="error_rate",
                metric="repro_loadgen_ops_total", threshold=0.01,
                description="failed operations across the whole mix",
            ),
            Objective(
                name="throughput_floor", kind="throughput",
                metric="repro_loadgen_op_seconds", threshold=2.0,
                description="overall completed ops per second",
            ),
        ),
    )
