"""Zero-dependency metrics registry.

Named :class:`Counter` / :class:`Gauge` / :class:`Histogram` families
with label support, collected in a thread-safe
:class:`MetricsRegistry`. Two expositions:

* :meth:`MetricsRegistry.snapshot` — a plain-JSON structure for
  programmatic consumers (benchmark records, tests, dashboards);
* :meth:`MetricsRegistry.prometheus` — the Prometheus text format
  (one ``# HELP`` / ``# TYPE`` pair per family, ``_bucket``/``_sum``/
  ``_count`` series per histogram child).

Histograms use fixed log-scale latency buckets by default
(:data:`DEFAULT_LATENCY_BUCKETS` — three per decade, 100 µs to 10 s),
so every latency metric in the system is comparable bucket-for-bucket.

Instrument families are created idempotently: asking a registry for an
existing name returns the existing family (and raises if the kind or
buckets disagree — a config bug worth failing loudly on).
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
]

#: Log-scale latency buckets in seconds: 3 per decade, 100 µs → 10 s.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    round(10.0 ** (exponent / 3.0), 6)
    for exponent in range(-12, 4)
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ValueError):
    """Invalid metric name, label, or conflicting registration."""


def _labels_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


def _render_labels(key: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(value)}"' for name, value in key
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


# ----------------------------------------------------------------------
# Children (one per unique label set)
# ----------------------------------------------------------------------
class CounterChild:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class GaugeChild:
    """A value that can go up, down, or be set outright."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_max(self, value: float) -> None:
        """Keep the running maximum of observed values."""
        with self._lock:
            self._value = max(self._value, float(value))

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class HistogramChild:
    """Cumulative bucket counts plus sum/count/max."""

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count", "_max")

    def __init__(
        self, lock: threading.Lock, buckets: Tuple[float, ...]
    ) -> None:
        self._lock = lock
        self.buckets = buckets
        self._counts = [0] * (len(buckets) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0
        self._max = 0.0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value > self._max:
                self._max = value

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def max(self) -> float:
        with self._lock:
            return self._max

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts, +Inf bucket last."""
        with self._lock:
            return list(self._counts)


# ----------------------------------------------------------------------
# Families
# ----------------------------------------------------------------------
class _Family:
    """A named metric with zero or more labeled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str) -> None:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._children: Dict[Tuple[Tuple[str, str], ...], Any] = {}

    def _new_child(self):
        raise NotImplementedError

    def labels(self, **labels: str):
        for label in labels:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r}")
        key = _labels_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._new_child()
                self._children[key] = child
            return child

    def children(self) -> List[Tuple[Dict[str, str], Any]]:
        with self._lock:
            return [
                (dict(key), child)
                for key, child in sorted(self._children.items())
            ]

    # unlabeled convenience: family.inc() == family.labels().inc()
    def _default(self):
        return self.labels()


class Counter(_Family):
    kind = "counter"

    def _new_child(self) -> CounterChild:
        return CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value


class Gauge(_Family):
    kind = "gauge"

    def _new_child(self) -> GaugeChild:
        return GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def set_max(self, value: float) -> None:
        self._default().set_max(value)

    @property
    def value(self) -> float:
        return self._default().value


class Histogram(_Family):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(name, help)
        chosen = tuple(buckets or DEFAULT_LATENCY_BUCKETS)
        if not chosen:
            raise MetricError("histogram needs at least one bucket")
        if list(chosen) != sorted(chosen):
            raise MetricError("histogram buckets must be sorted")
        self.buckets = chosen

    def _new_child(self) -> HistogramChild:
        return HistogramChild(self._lock, self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def sum(self) -> float:
        return self._default().sum

    @property
    def count(self) -> int:
        return self._default().count

    @property
    def max(self) -> float:
        return self._default().max


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """A named collection of metric families, thread-safe.

    One process-wide registry exists by default
    (:func:`repro.obs.get_registry`); components take an injectable
    ``registry`` so tests and multi-tenant embeddings can isolate
    their counters.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # -- family constructors -------------------------------------------
    def _register(self, family_cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, family_cls):
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}"
                    )
                buckets = kwargs.get("buckets")
                if (
                    buckets is not None
                    and tuple(buckets) != existing.buckets
                ):
                    raise MetricError(
                        f"histogram {name!r} already registered with "
                        "different buckets"
                    )
                return existing
            family = family_cls(name, help, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._register(Histogram, name, help, buckets=buckets)

    # -- introspection -------------------------------------------------
    def families(self) -> List[_Family]:
        with self._lock:
            return [
                self._families[name]
                for name in sorted(self._families)
            ]

    def get(self, name: str) -> Optional[_Family]:
        with self._lock:
            return self._families.get(name)

    def clear(self) -> None:
        """Drop every family — test isolation helper."""
        with self._lock:
            self._families.clear()

    # -- expositions ---------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able view of every family and child."""
        result: Dict[str, Any] = {}
        for family in self.families():
            series = []
            for labels, child in family.children():
                if isinstance(child, HistogramChild):
                    series.append({
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "max": child.max,
                        "buckets": {
                            _format_value(edge): count
                            for edge, count in zip(
                                list(family.buckets) + [math.inf],
                                child.bucket_counts(),
                            )
                        },
                    })
                else:
                    series.append(
                        {"labels": labels, "value": child.value}
                    )
            result[family.name] = {
                "type": family.kind,
                "help": family.help,
                "series": series,
            }
        return result

    def prometheus(self) -> str:
        """Prometheus text exposition format, version 0.0.4."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, child in family.children():
                key = _labels_key(labels)
                if isinstance(child, HistogramChild):
                    cumulative = 0
                    edges = list(family.buckets) + [math.inf]
                    for edge, count in zip(
                        edges, child.bucket_counts()
                    ):
                        cumulative += count
                        le = (
                            f'le="{_format_value(edge)}"'
                        )
                        lines.append(
                            f"{family.name}_bucket"
                            f"{_render_labels(key, le)} {cumulative}"
                        )
                    lines.append(
                        f"{family.name}_sum{_render_labels(key)} "
                        f"{_format_value(child.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{_render_labels(key)} "
                        f"{child.count}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_render_labels(key)} "
                        f"{_format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")
