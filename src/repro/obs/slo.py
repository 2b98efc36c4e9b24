"""Declarative SLOs judged on a load run's report.

Concurrency: single-threaded

An :class:`SLOSpec` is a named list of :class:`Objective` rows, each
binding one figure of the load report
(:meth:`~repro.workloads.loadgen.LoadReport.to_dict`) to a target:

* ``latency`` — the ``p50``/``p95``/``p99``/``max`` of one op's row in
  ``per_op`` (the objective's ``op``) must stay at or below a
  threshold (seconds);
* ``freshness`` — the same quantile of the report's upload-to-queryable
  ``freshness`` row must stay at or below a threshold (seconds);
* ``error_rate`` — ``errors / completed`` must stay at or below a
  ratio;
* ``throughput`` — ``throughput_ops_per_s`` must stay at or *above* a
  floor.

The report's percentiles are exact nearest-rank order statistics of
every op's elapsed time, so the SLO table and the report table print
the same figure; a quantile the report does not hold (anything but
0.5, 0.95, 0.99 and 1.0) is refused when the spec loads. Evaluation
(:func:`evaluate_slo`) runs over the plain-JSON report, so the same
code judges an in-process load run and a ``--report`` file or
``--save-metrics`` bundle loaded back hours later in CI. The verdict
is an :class:`SLOReport`: one :class:`ObjectiveResult` per objective
with the observed value, the target, the **burn** ratio
(observed/target: how much of the objective's budget the run
consumed; >1.0 is a breach) and a pass/fail flag, plus the overall
verdict and a JSON form CI uploads as an artifact.

A report that holds no sample for an objective cannot be judged: an
op the run never drew, or no upload for a freshness objective, raises
:class:`SLOError` rather than pass or breach. :meth:`SLOSpec.ops`
names the ops a spec needs, so ``repro obs loadgen --slo`` checks a
schedule draws them before it runs. :func:`default_slo` is the spec
the ``repro obs loadgen --slo`` smoke run and ``bench_loadgen`` guard
enforce; custom specs load from JSON via :meth:`SLOSpec.load`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Mapping, Tuple, Union

__all__ = [
    "Objective",
    "ObjectiveResult",
    "SLOError",
    "SLOReport",
    "SLOSpec",
    "default_slo",
    "evaluate_slo",
]

#: Objective kinds and the comparison direction they imply.
_KINDS = ("latency", "freshness", "error_rate", "throughput")

#: The quantiles a load report holds, by the name of their column.
_QUANTILES = {0.5: "p50", 0.95: "p95", 0.99: "p99", 1.0: "max"}


class SLOError(ValueError):
    """A malformed SLO spec or an unevaluable objective."""


@dataclass(frozen=True)
class Objective:
    """One service-level objective over one figure of the load report."""

    name: str
    kind: str                   # latency|freshness|error_rate|throughput
    threshold: float            # seconds / ratio / ops-per-second floor
    op: str = ""                # latency only: the op kind judged
    quantile: float = 0.95      # latency + freshness only
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SLOError(
                f"unknown objective kind {self.kind!r} "
                f"(allowed: {', '.join(_KINDS)})"
            )
        if self.quantile not in _QUANTILES:
            raise SLOError(
                f"objective {self.name!r}: quantile {self.quantile:g} "
                f"is not in the load report (allowed: "
                f"{', '.join(f'{q:g}' for q in _QUANTILES)})"
            )
        if self.threshold < 0:
            raise SLOError("objective threshold must be >= 0")
        if (self.kind == "latency") != bool(self.op):
            raise SLOError(
                f"objective {self.name!r}: a latency objective names "
                f"an op, and only a latency objective does"
            )

    def target_text(self) -> str:
        if self.kind in ("latency", "freshness"):
            return (
                f"{_QUANTILES[self.quantile]} <= "
                f"{self.threshold * 1000.0:g} ms"
            )
        if self.kind == "error_rate":
            return f"errors <= {self.threshold:.2%}"
        return f">= {self.threshold:g} op/s"

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "Objective":
        if not isinstance(data, Mapping):
            raise SLOError(f"objective {data!r} is not a JSON object")
        unknown = set(data) - {entry.name for entry in fields(Objective)}
        if unknown:
            raise SLOError(
                f"objective {data.get('name')!r} has unknown field(s) "
                f"{', '.join(sorted(unknown))}"
            )
        try:
            values = dict(
                name=str(data["name"]),
                kind=str(data["kind"]),
                threshold=float(data["threshold"]),
                op=str(data.get("op", "")),
                quantile=float(data.get("quantile", 0.95)),
                description=str(data.get("description", "")),
            )
        except KeyError as exc:
            raise SLOError(f"objective missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise SLOError(f"objective {data['name']!r}: {exc}") from None
        return Objective(**values)


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

    def ops(self) -> FrozenSet[str]:
        """The op kinds a run must draw for every objective to have
        data: each latency objective's op, and ``upload`` when a
        freshness objective is present."""
        return frozenset(
            "upload" if objective.kind == "freshness" else objective.op
            for objective in self.objectives
            if objective.kind in ("latency", "freshness")
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "objectives": [o.to_dict() for o in self.objectives],
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "SLOSpec":
        objectives = (
            data.get("objectives") if isinstance(data, Mapping) else None
        )
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
    observed: float
    ok: bool
    burn: float                 # observed budget share; > 1.0 breaches
    samples: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.objective.name,
            "kind": self.objective.kind,
            "op": self.objective.op,
            "target": self.objective.threshold,
            "target_text": self.objective.target_text(),
            "observed": self.observed,
            "ok": self.ok,
            "burn": self.burn,
            "samples": self.samples,
        }


@dataclass
class SLOReport:
    """Structured pass/fail verdict over one load report."""

    spec_name: str
    results: List[ObjectiveResult]
    wall_seconds: float

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

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
        for result in sorted(self.results, key=lambda r: -r.burn):
            objective = result.objective
            if objective.kind in ("latency", "freshness"):
                observed = f"{result.observed * 1000.0:.1f} ms"
            elif objective.kind == "error_rate":
                observed = f"{result.observed:.2%}"
            else:
                observed = f"{result.observed:.1f} op/s"
            lines.append(
                f"  {objective.name:<22} {objective.target_text():<22} "
                f"{observed:>12} {result.burn:>6.2f} "
                f"{result.samples:>6}  {'ok' if result.ok else 'BREACH'}"
            )
        return "\n".join(lines)


def _share(part: float, whole: float) -> float:
    """``part / whole``, infinite for a positive part of nothing."""
    if whole > 0:
        return part / whole
    return math.inf if part > 0 else 0.0


def _row(
    report: Mapping[str, Any], objective: Objective
) -> Mapping[str, float]:
    """The report row a latency or freshness objective reads."""
    if objective.kind == "freshness":
        row = report["freshness"]
        if not row.get("count"):
            raise SLOError(
                f"objective {objective.name!r}: the report holds no "
                f"synced upload to judge freshness on"
            )
        return row
    row = report["per_op"].get(objective.op)
    if row is None:
        raise SLOError(
            f"objective {objective.name!r}: the report holds no "
            f"{objective.op!r} op (it drew "
            f"{', '.join(sorted(report['per_op'])) or 'none'})"
        )
    return row


def evaluate_slo(
    spec: SLOSpec, report: Mapping[str, Any]
) -> SLOReport:
    """Judge every objective of ``spec`` against a load ``report``.

    ``report`` is :meth:`LoadReport.to_dict` (or the same loaded back
    from JSON). Raises :class:`SLOError` when the report holds no
    sample for an objective.
    """
    completed = int(report["completed"])
    results: List[ObjectiveResult] = []
    for objective in spec.objectives:
        if objective.kind in ("latency", "freshness"):
            row = _row(report, objective)
            column = f"{_QUANTILES[objective.quantile]}_ms"
            observed = row[column] / 1000.0
            ok = observed <= objective.threshold
            burn = _share(observed, objective.threshold)
            samples = int(row["count"])
        elif objective.kind == "error_rate":
            observed = _share(int(report["errors"]), completed)
            ok = observed <= objective.threshold
            burn = _share(observed, objective.threshold)
            samples = completed
        else:
            observed = float(report["throughput_ops_per_s"])
            ok = observed >= objective.threshold
            burn = _share(objective.threshold, observed)
            samples = completed
        results.append(
            ObjectiveResult(objective, observed, ok, burn, samples)
        )
    return SLOReport(spec.name, results, float(report["wall_seconds"]))


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
                name="search_p95", kind="latency", op="search",
                quantile=0.95, threshold=0.50,
                description="incremental search suggestion latency",
            ),
            Objective(
                name="browse_p95", kind="latency", op="browse",
                quantile=0.95, threshold=0.50,
                description="web pagination latency",
            ),
            Objective(
                name="album_p95", kind="latency", op="album",
                quantile=0.95, threshold=2.0,
                description="virtual-album SPARQL latency",
            ),
            Objective(
                name="mashup_p95", kind="latency", op="mashup",
                quantile=0.95, threshold=4.0,
                description="About-mashup SPARQL latency",
            ),
            Objective(
                name="store_write_p99", kind="latency", op="store_write",
                quantile=0.99, threshold=0.25,
                description="QuadStore.insert autocommit write latency",
            ),
            Objective(
                name="upload_p95", kind="latency", op="upload",
                quantile=0.95, threshold=10.0,
                description="upload + annotate + store sync latency",
            ),
            Objective(
                name="freshness_p95", kind="freshness",
                quantile=0.95, threshold=15.0,
                description="upload-to-queryable staleness window",
            ),
            Objective(
                name="error_rate", kind="error_rate", threshold=0.01,
                description="failed operations across the whole mix",
            ),
            Objective(
                name="throughput_floor", kind="throughput",
                threshold=2.0,
                description="overall completed ops per second",
            ),
        ),
    )
