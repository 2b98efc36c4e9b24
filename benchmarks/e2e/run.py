"""End-to-end benchmark driver (see README.md in this directory).

    python3 benchmarks/e2e/run.py --workload album-read --seed 7 \\
        --seconds 10 --trace 0

builds the workload's stack, replays its seeded schedule in a closed
loop (one client), checks every result, prints every metric by name
with its unit and ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, their timings normalised by the machine-speed meter
of :mod:`e2e_speed`; ``--trace 1`` replays twice — untraced, then with
the timing wrappers of :mod:`e2e_spans` installed — and reports the
per-layer metrics. Without ``--workload`` every workload runs in turn.

    python3 benchmarks/e2e/run.py --compare A.jsonl B.jsonl

compares two sets of ``--out`` records metric by metric.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.core.albums import (  # noqa: E402
    geo_album,
    rated_album,
    social_album,
)
from repro.core.mashup import mashup_query  # noqa: E402
from repro.obs import MetricsRegistry, set_registry  # noqa: E402
from repro.sparql import Evaluator  # noqa: E402
from repro.sparql.algebra import ScanStep  # noqa: E402

import e2e_spans as spans  # noqa: E402
from e2e_speed import SpeedMeter  # noqa: E402
from e2e_workloads import WORKLOADS, Workload  # noqa: E402


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_pins() -> Dict[str, Any]:
    """Input digests recorded for the default ``(seed, seconds)``."""
    return json.loads((HERE / "pins.json").read_text(encoding="utf-8"))


#: set-up is repeated and its median reported, so one slow build (cold
#: LOD-corpus cache, a page-cache miss) does not move ``setup_s``
SETUP_REPEATS = 5
#: a replay sized for ``--seconds`` is abandoned after this multiple of
#: it, so a slow machine degrades to fewer ops instead of a timeout
DEADLINE_FACTOR = 2.5

Metrics = Dict[str, Tuple[float, str]]


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ms(seconds: float) -> float:
    return seconds * 1000.0


def us(seconds: float) -> float:
    return seconds * 1_000_000.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


class Replay:
    """Closed-loop execution of one workload's schedule by one client,
    with the speed meter sampled between ops."""

    def __init__(self, workload: Workload, seconds: float,
                 meter: SpeedMeter) -> None:
        self.workload = workload
        self.meter = meter
        self.deadline_s = seconds * DEADLINE_FACTOR
        self.failures: List[str] = []
        self.attempted = 0
        #: per kind: (timed seconds, meter sample that preceded the op)
        self.samples: Dict[str, List[Tuple[float, int]]] = defaultdict(list)
        self.wall = 0.0        # kernel passes excluded
        self.normalised = 0.0  # the same, at the reference machine's speed

    def run(self) -> "Replay":
        workload, meter = self.workload, self.meter
        tracer = workload.tracer
        first = meter.sample()
        stop_at = time.perf_counter() + self.deadline_s
        for op in workload.schedule:
            if time.perf_counter() > stop_at:
                break
            self.attempted += 1
            with tracer.span("op." + op[0]):
                try:
                    took = workload.execute(op)
                except Exception as exc:  # op boundary: record, go on
                    self.failures.append(
                        f"{op}: {type(exc).__name__}: {exc}"
                    )
                else:
                    self.samples[op[0]].append((took, meter.last))
            meter.sample_if_due()
        last = meter.sample()
        gaps = meter.gaps[first:last]
        self.wall = sum(gaps)
        self.normalised = sum(
            gap / meter.speed(first + i) for i, gap in enumerate(gaps)
        )
        return self

    def latencies(self, kinds: Sequence[str],
                  normalise: bool = False) -> List[float]:
        """Pooled latencies of ``kinds``, as timed or at reference speed."""
        speed = self.meter.speed
        return [
            took / speed(index) if normalise else took
            for kind in kinds for took, index in self.samples.get(kind, ())
        ]

    def grouped_p50(self, groups: Sequence[Sequence[str]]) -> float:
        """Mean over the groups of each group's median latency, at
        reference speed."""
        return mean([
            percentile(self.latencies(group, normalise=True), 0.5)
            for group in groups
        ])


class PinMismatch(Exception):
    """The generated inputs are not the ones the baselines measured."""


def build(name: str, seed: int, seconds: float, tracer: spans.Tracer,
          pins: Dict[str, Any]) -> Workload:
    """Generate the workload's inputs; for the pinned ``(seed, seconds)``
    refuse to run when they differ from the recorded digests."""
    workload = WORKLOADS[name](seed, seconds, tracer)
    if seed == pins.get("seed") and seconds == pins.get("seconds"):
        got = {"schedule": workload.schedule_digest,
               "captures": workload.captures_digest}
        if got != pins.get(name):
            raise PinMismatch(
                f"{name}: inputs for seed {seed} changed: digests {got}, "
                f"pinned {pins.get(name)} — this is not the load the "
                f"baselines were measured on"
            )
    return workload


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(workload: Workload, replay: Replay,
               setups: Sequence[float]) -> Metrics:
    """The gated metrics; every timing is at reference speed."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (replay.attempted / replay.normalised, "1/s"),
        "primary_p50_ms": (ms(replay.grouped_p50(workload.primary)), "ms"),
        "secondary_p50_ms": (
            ms(replay.grouped_p50(workload.secondary)), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }


def user_facing(workload: Workload, replay: Replay,
                failed: int) -> Metrics:
    """Per-op timings of the *untraced* replay, by their own names and
    as timed (not normalised; ``bench.speed_index`` says how slow the
    machine ran meanwhile).

    Ungated: each exists on some workloads only (0 elsewhere), and the
    tails did not repeat within a tenth (README, "bounds")."""

    def p_ms(q: float, *kinds: str) -> Tuple[float, str]:
        return ms(percentile(replay.latencies(kinds), q)), "ms"

    albums = ("album_geo", "album_social", "album_rated")
    return {
        "e2e.album_p50_ms": p_ms(0.5, *albums),
        "e2e.album_p95_ms": p_ms(0.95, *albums),
        "e2e.mashup_p50_ms": p_ms(0.5, "mashup"),
        "e2e.search_p50_ms": p_ms(0.5, "search"),
        "e2e.browse_p50_ms": p_ms(0.5, "browse"),
        "e2e.fresh_p50_ms": p_ms(0.5, "upload"),
        "e2e.mutate_p50_ms": p_ms(0.5, "rate", "edit", "region", "delete"),
        "e2e.commit_p50_ms": p_ms(0.5, "commit"),
        "e2e.commit_p95_ms": p_ms(0.95, "commit"),
        "e2e.recovery_s": (workload.recovery_s, "s"),
        "e2e.disk_bytes_per_quad": (workload.disk_bytes_per_quad, "B"),
        "e2e.failed_share": (failed / max(1, replay.attempted), "ratio"),
        "e2e.ops_per_s": (replay.attempted / replay.wall, "1/s"),
        "bench.speed_index": (replay.wall / replay.normalised, "ratio"),
        "platform.browse_p95_ms": p_ms(0.95, "browse"),
        "platform.fresh_p90_ms": p_ms(0.9, "upload"),
        "core.mashup_p95_ms": p_ms(0.95, "mashup"),
    }


def rows_scanned_per_result(workload: Workload) -> float:
    """Scan-step rows per result row on Q1–Q3 and M1 (EXPLAIN actuals)."""
    if not workload.pids:
        return 0.0
    store = workload.store
    queries = [
        geo_album().query, social_album().query, rated_album().query,
        mashup_query(workload.pids[0]),
    ]
    scanned = results = 0
    for query in queries:
        explanation = Evaluator(store).explain(query)
        results += explanation.row_count or 0
        stack = [explanation.planned.plan]
        while stack:
            node = stack.pop()
            if isinstance(node, ScanStep):
                scanned += node.actual_rows or 0
            stack.extend(node.children())
    return scanned / max(1, results)


def per_layer(workload: Workload, replay: Replay, tracer: spans.Tracer,
              overhead: float) -> Metrics:
    by_name: Dict[str, List[list]] = {}
    for record in tracer.spans():
        by_name.setdefault(record[spans.NAME], []).append(record)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def mean_s(name: str) -> float:
        return mean([spans.duration(r) for r in by_name.get(name, ())])

    def self_s(name: str) -> float:
        return mean([spans.self_seconds(r) for r in by_name.get(name, ())])

    def extras(name: str) -> List[Any]:
        return [r[spans.EXTRA] for r in by_name.get(name, ())
                if r[spans.EXTRA] is not None]

    mutations = len(replay.latencies(
        ("upload", "rate", "edit", "region", "delete")
    ))
    queries = calls(spans.QUERY_SPAN)
    broker = extras("resolvers.resolve")
    words = sum(e[0] for e in broker)
    syncs = by_name.get("store.sync_dataset", [])
    compared = sum(r[spans.EXTRA] or 0 for r in syncs)
    committed = sum(
        r[spans.EXTRA][1] for r in by_name.get("store.commit", ())
        if r[spans.EXTRA] is not None and any(
            a[spans.NAME] == "store.sync_dataset"
            for a in spans.ancestors(r)
        )
    )
    client_commits = [
        r for r in by_name.get("store.commit", ())
        if r[spans.PARENT] is not None
        and r[spans.PARENT][spans.NAME] == "op.commit"
    ]
    commit_fsyncs = sum(
        1 for r in by_name.get("store.fsync", ())
        if any(a[spans.NAME] == "store.commit" for a in spans.ancestors(r))
    )
    checkpoints = by_name.get("store.checkpoint", [])
    stalled = [
        spans.duration(c) for c in client_commits
        if any(c[spans.START] < k[spans.END] and k[spans.START] < c[spans.END]
               for k in checkpoints)
    ]
    wal_bytes = sum(extras("store.wal_append"))
    snapshots = extras("store.snapshot_write")
    fresh_ops = by_name.get("op.upload", [])
    return {
        "platform.upload_self_ms": (ms(self_s("platform.upload")), "ms"),
        "platform.semanticize_ms": (
            ms(mean_s("platform.semanticize")), "ms"),
        "platform.semanticize_calls": (
            calls("platform.semanticize"), "count"),
        "platform.evaluator_ms": (ms(mean_s("platform.evaluator")), "ms"),
        "platform.search_build_ms": (
            ms(mean_s("platform.search_build")), "ms"),
        "platform.suggest_us": (us(mean_s("platform.suggest")), "us"),
        "platform.browse_us": (us(mean_s("platform.browse")), "us"),
        "d2r.dump_ms": (ms(mean_s("d2r.dump")), "ms"),
        "d2r.dump_calls": (calls("d2r.dump"), "count"),
        "d2r.triples_per_dump": (mean(extras("d2r.dump")), "count"),
        "relational.statements": (calls("relational.execute"), "count"),
        "relational.execute_us": (
            us(mean_s("relational.execute")), "us"),
        "lod.union_ms": (ms(mean_s("lod.union")), "ms"),
        "core.annotate_ms": (ms(mean_s("core.annotate")), "ms"),
        "core.annotate_calls_per_mutation": (
            calls("core.annotate") / max(1, mutations), "ratio"),
        "core.location_ms": (ms(mean_s("core.location")), "ms"),
        "core.album_geo_ms": (ms(mean_s("core.album_geo")), "ms"),
        "core.album_social_ms": (ms(mean_s("core.album_social")), "ms"),
        "core.album_rated_ms": (ms(mean_s("core.album_rated")), "ms"),
        "core.mashup_ms": (ms(mean_s("core.mashup")), "ms"),
        "nlp.detect_us": (us(mean_s("nlp.detect")), "us"),
        "nlp.proper_nouns_us": (us(mean_s("nlp.proper_nouns")), "us"),
        "resolvers.resolve_ms": (ms(mean_s("resolvers.resolve")), "ms"),
        "resolvers.candidates_per_word": (
            sum(e[1] for e in broker) / max(1, words), "ratio"),
        "resolvers.failures": (sum(e[2] for e in broker), "count"),
        "sparql.parse_us": (us(mean_s("sparql.parse")), "us"),
        "sparql.evaluator_init_us": (
            us(mean_s("sparql.evaluator_init")), "us"),
        "sparql.evaluate_self_ms": (ms(self_s(spans.QUERY_SPAN)), "ms"),
        "sparql.rows_scanned_per_result": (
            rows_scanned_per_result(workload), "ratio"),
        "analysis.plan_ms": (ms(mean_s("analysis.plan")), "ms"),
        "analysis.stats_ms": (ms(mean_s("analysis.stats")), "ms"),
        "analysis.stats_rebuilds": (
            calls("analysis.stats_rebuild"), "count"),
        "rdf.triples_calls_per_query": (
            sum(extras(spans.QUERY_SPAN)) / max(1, queries), "ratio"),
        "store.sync_dataset_ms": (ms(mean_s("store.sync_dataset")), "ms"),
        "store.sync_quads_compared": (
            compared / max(1, len(syncs)), "count"),
        "store.sync_ops_committed": (
            committed / max(1, len(syncs)), "count"),
        "store.sync_useful_ratio": (committed / max(1, compared), "ratio"),
        "store.pin_us": (us(mean_s("store.pin")), "us"),
        "store.pinned_scan_us": (us(mean_s("store.pinned_scan")), "us"),
        "store.commit_self_ms": (ms(self_s("store.commit")), "ms"),
        "store.wal_append_us": (us(mean_s("store.wal_append")), "us"),
        "store.fsync_us": (us(mean_s("store.fsync")), "us"),
        "store.fsyncs_per_commit": (
            commit_fsyncs / max(1, len(client_commits)), "ratio"),
        "store.wal_bytes_per_user_byte": (
            wal_bytes / workload.user_bytes if workload.user_bytes else 0.0,
            "ratio"),
        "store.checkpoints": (len(checkpoints), "count"),
        "store.checkpoint_ms": (ms(mean_s("store.checkpoint")), "ms"),
        "store.snapshot_bytes": (
            snapshots[-1] if snapshots else 0, "B"),
        "store.commit_stall_p99_ms": (ms(percentile(stalled, 0.99)), "ms"),
        "store.recover_ms": (ms(workload.recovery_s), "ms"),
        "store.recover_replayed_ops": (workload.recovered_ops, "count"),
        "bench.trace_overhead_ratio": (overhead, "ratio"),
        "bench.fresh_coverage_ratio": (
            1.0 - sum(spans.self_seconds(r) for r in fresh_ops)
            / sum(spans.duration(r) for r in fresh_ops)
            if fresh_ops else 0.0, "ratio"),
        # a mismatch with pins.json refuses to run (PinMismatch)
        "bench.schedule_digest_ok": (1, "count"),
    }


# ---------------------------------------------------------------------------
# One workload, one invocation
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 pins: Dict[str, Any],
                 trace_out: Optional[str] = None) -> Dict[str, Any]:
    tracer = spans.Tracer()
    meter = SpeedMeter()
    previous = set_registry(MetricsRegistry())  # fresh per workload
    workloads: List[Workload] = []
    try:
        workload = build(name, seed, seconds, tracer, pins)
        workloads.append(workload)
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            workload.close()
            before = meter.sample(long=True)
            began = time.perf_counter()
            workload.setup()
            took = time.perf_counter() - began
            meter.sample(long=True)
            setups.append(took / meter.speed(before))
        replay = Replay(workload, seconds, meter).run()
        failures = replay.failures + workload.verify()
        attempted = replay.attempted
        if not trace:
            metrics = end_to_end(workload, replay, setups)
        else:
            metrics = user_facing(workload, replay, len(failures))
            workload.close()
            traced = build(name, seed, seconds, tracer, pins)
            workloads.append(traced)
            traced.setup()
            spans.install(tracer)
            try:
                traced_replay = Replay(traced, seconds, meter).run()
            finally:
                spans.uninstall(tracer)
            failures += traced_replay.failures + traced.verify()
            attempted += traced_replay.attempted
            metrics.update(per_layer(
                traced, traced_replay, tracer,
                overhead=traced_replay.normalised / replay.normalised,
            ))
            if trace_out:
                tracer.dump(trace_out)
    finally:
        for built in workloads:
            built.close()
        set_registry(previous)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        # how much slower than the reference the machine ran (untraced)
        "speed_index": replay.wall / replay.normalised,
        "schedule_digest": workloads[0].schedule_digest,
        "captures_digest": workloads[0].captures_digest,
        "failures": failures[:10],
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def _load(path: str) -> Dict[Tuple[str, str], List[float]]:
    values: Dict[Tuple[str, str], List[float]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("trace"):
            continue
        for metric, entry in record["metrics"].items():
            values.setdefault((record["workload"], metric), []).append(
                entry["value"]
            )
    return values


def _spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 below 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(path_a: str, path_b: str) -> int:
    """B against base A, per workload x end-to-end metric."""
    spec = load_spec()
    a, b = _load(path_a), _load(path_b)
    print(f"{'workload':<14} {'metric':<18} {'A median':>12} "
          f"{'B median':>12} {'B/A':>7} {'bound':>6}  verdict")
    worse = 0
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            key = (workload["name"], metric["name"])
            if key not in a or key not in b:
                continue
            med_a = statistics.median(a[key])
            med_b = statistics.median(b[key])
            ratio = med_b / med_a
            lower = metric["better"] == "lower"
            regress = ratio - 1.0 if lower else 1.0 - ratio
            all_better = (
                max(b[key]) < min(a[key]) if lower
                else min(b[key]) > max(a[key])
            )
            noisy = max(_spread(a[key]), _spread(b[key])) > metric["bound"]
            if regress > metric["bound"]:
                verdict = "worse"
                worse += 1
            elif noisy and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{key[0]:<14} {key[1]:<18} {med_a:>12.4f} "
                  f"{med_b:>12.4f} {ratio:>7.3f} {metric['bound']:>6.2f}"
                  f"  {verdict} (base A, n={len(a[key])}/{len(b[key])})")
    return 1 if worse else 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    pins = load_pins()
    parser.add_argument("--seed", type=int, default=pins["seed"])
    parser.add_argument("--seconds", type=float, default=pins["seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append one JSON record per run")
    parser.add_argument("--trace-out", help="write the spans (JSON)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = [args.workload] if args.workload else list(WORKLOADS)
    exit_code = 0
    for name in names:
        try:
            result = run_workload(
                name, args.seed, args.seconds, bool(args.trace), pins,
                args.trace_out,
            )
        except PinMismatch as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"== {name} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} schedule={result['schedule_digest']} "
              f"captures={result['captures_digest']}")
        for key, entry in result["metrics"].items():
            print(f"{key:<34} {entry['value']:>14.4f} {entry['unit']}")
        for failure in result["failures"]:
            print(f"FAILED {failure}")
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(result) + "\n")
        if not result["correct"]:
            exit_code = 1
        print(json.dumps({
            key: result[key]
            for key in ("correct", "attempted", "failed", "metrics")
        }))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
