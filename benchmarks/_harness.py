"""Shared benchmark-result harness.

Guard benchmarks that hand-time or count their critical sections (the
corpus-size ladder, the parallel batch run, the tracing-overhead gate) persist
their numbers through :func:`record`: one ``BENCH_<name>.json`` file per
benchmark holding the run history as a JSON array.  Each record carries
the latency summary (median/p95/min/max over the timed samples) plus
enough run metadata (UTC timestamp, interpreter, platform) to compare
numbers across machines and commits.  CI uploads the result directory
as an artifact.

The destination defaults to ``bench-results/`` under the current
working directory; set ``REPRO_BENCH_DIR`` to redirect it.

These records are a CI artifact, not a comparison: two commits are
compared with ``python3 benchmarks/e2e/run.py --compare`` (paired
alternating runs, speed-normalised, spread-aware verdicts).

Guards count rather than time where a count exists: :func:`counted`
counts the calls a block makes to one function, and :func:`metered`
brackets an ungated timing with the end-to-end benchmark's speed meter.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
from e2e_speed import REFERENCE_S, SpeedMeter  # noqa: E402

__all__ = [
    "counted",
    "metered",
    "percentile",
    "record",
    "results_dir",
    "timed_samples",
]


def results_dir() -> Path:
    """Directory that receives ``BENCH_<name>.json`` files."""
    return Path(os.environ.get("REPRO_BENCH_DIR", "bench-results"))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of ``samples``."""
    if not samples:
        raise ValueError("percentile() of empty sample set")
    ordered = sorted(samples)
    rank = max(int(round(q * len(ordered) + 0.5)) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


def timed_samples(
    fn: Callable[[], object], repeats: int = 5
) -> List[float]:
    """``repeats`` wall-clock samples of ``fn()`` in milliseconds."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    return samples


@contextmanager
def counted(
    owner: object, name: str, calls: Optional[List[int]] = None
) -> Iterator[List[int]]:
    """Count the calls to ``owner.<name>`` (a module function or a class
    method) made while the block runs; yields the list that grows by
    one entry per call (``calls``, to count several into one)."""
    original = getattr(owner, name)
    calls = [] if calls is None else calls

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    setattr(owner, name, counting)
    try:
        yield calls
    finally:
        setattr(owner, name, original)


def metered(fn: Callable[[], object]) -> Tuple[object, float]:
    """``(fn(), speed index)``: ``fn`` bracketed by two long passes of
    the end-to-end benchmark's speed meter (1.0 = its quiet reference
    sandbox, so a timing divided by the index reads at that speed)."""
    meter = SpeedMeter()
    meter.sample(long=True)
    result = fn()
    meter.sample(long=True)
    return result, round(statistics.mean(meter.samples) / REFERENCE_S, 2)


def record(
    name: str,
    samples_ms: Sequence[float],
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Append one result record to ``BENCH_<name>.json``.

    Returns the record written.  The file holds a JSON array so that
    repeated local runs accumulate a comparable history; CI starts from
    a clean directory and uploads single-record files.
    """
    samples = [float(s) for s in samples_ms]
    entry: Dict[str, object] = {
        "bench": name,
        "median_ms": round(statistics.median(samples), 3),
        "p95_ms": round(percentile(samples, 0.95), 3),
        "min_ms": round(min(samples), 3),
        "max_ms": round(max(samples), 3),
        "samples": len(samples),
        "recorded_at": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "python": sys.version.split()[0],
        "platform": _platform.platform(),
    }
    if extra:
        entry["extra"] = dict(extra)

    path = results_dir() / f"BENCH_{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    history: List[Dict[str, object]] = []
    if path.exists():
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            loaded = []
        if isinstance(loaded, list):
            history = [e for e in loaded if isinstance(e, dict)]
        elif isinstance(loaded, dict):
            history = [loaded]
    history.append(entry)
    path.write_text(
        json.dumps(history, indent=2) + "\n", encoding="utf-8"
    )
    return entry
