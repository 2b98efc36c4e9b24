"""OBSERVABILITY HARNESS — SLO-guarded load run + profiler overhead.

Two guards pin this PR's observability machinery:

* ``bench_loadgen_slo`` — a small closed-loop run of the default
  traffic mix (uploads, incremental search, virtual albums, mashups,
  browsing, store writes) must meet the *default SLO spec*: per-op
  p95/p99 latency ceilings, the upload-to-queryable freshness bound,
  the error-rate budget, and the throughput floor.  A breach fails the
  benchmark with the rendered SLO report in the assertion message.
* ``bench_profiler_overhead`` — a ten times longer run of the same mix
  with the sampling profiler attached: the share of the run the
  sampler thread takes from the workload must stay within 1.10x.

Results persist to ``BENCH_loadgen.json`` via :mod:`_harness`; each
record carries the measured throughput and per-op p95s for the CI
artifact.
"""

from __future__ import annotations

import statistics

from _harness import record
from repro.obs import MetricsRegistry, SamplingProfiler, set_registry
from repro.obs.slo import default_slo, evaluate_slo
from repro.workloads import LoadConfig, LoadGenerator

# 48 ops at seed 7 draws every op kind of the default mix, so every
# objective of the default SLO spec has data to judge
CONFIG = dict(
    mix="default", seed=7, ops=48, workers=4,
    base_contents=15, sync_every=3,
)
REPEATS = 3


def _run_once(**overrides):
    """One isolated load run: fresh registry in, report out."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        return LoadGenerator(LoadConfig(**{**CONFIG, **overrides})).run()
    finally:
        set_registry(previous)


def bench_loadgen_slo(benchmark):
    """The default mix must meet the default SLO spec end to end."""
    walls_ms = []
    report = None
    slo = None
    for _ in range(REPEATS):
        report = _run_once()
        walls_ms.append(report.wall_seconds * 1000.0)
        slo = evaluate_slo(
            default_slo(), report.metrics,
            wall_seconds=report.wall_seconds,
        )
        assert report.errors == 0, report.error_samples
        assert slo.passed, "SLO breach:\n" + slo.render()

    p95s = {
        op: round(row["p95_ms"], 2)
        for op, row in sorted(report.per_op.items())
    }
    benchmark.extra_info["throughput_ops_per_s"] = round(
        report.throughput, 1
    )
    benchmark.extra_info["per_op_p95_ms"] = p95s
    record(
        "loadgen",
        walls_ms,
        extra={
            "section": "default_mix_slo",
            **CONFIG,
            "throughput_ops_per_s": round(report.throughput, 1),
            "per_op_p95_ms": p95s,
            "freshness_p95_ms": round(
                report.freshness.get("p95_ms", 0.0), 1
            ),
            "slo_objectives": len(slo.results),
            "slo_passed": slo.passed,
        },
    )

    benchmark.pedantic(_run_once, rounds=1, iterations=1)


OVERHEAD_CEILING = 1.10
OVERHEAD_REPEATS = 5
# ten times CONFIG's ops: ~0.7 s and ~50 sampler ticks per run
OVERHEAD_OPS = 480


def bench_profiler_overhead(benchmark):
    """Attaching the sampler may not slow the workload past 1.10x.

    What is gated is the slowdown the sampler accounts for itself:
    ``1 / (1 - duty_cycle)``, the wall time it spends inside its ticks
    (holding the interpreter lock the workload wants) over the run's
    wall time. Both sides of that fraction slow down together when the
    machine does: over 8 blocks of 5 runs at this length it read
    1.011-1.017x (PR 21; 1.014-1.018x at 960 ops, 1.015-1.019x at
    1 920).

    The wall-clock ratio it replaces as the gate — median of 5 profiled
    runs over median of 5 interleaved plain ones — is still recorded,
    but two sets of *plain* runs compared that way disagree by more
    than the 10 % they would gate on a shared 2-core machine, however
    long the run: 0.933-1.145 at 48 ops (45 ms a run, 6 blocks),
    0.814-1.031 at 480 ops (0.7 s, 8 blocks), 0.868-1.038 at 960 ops
    (1.5 s, 8 blocks), 0.881-1.023 at 1 920 ops (3.6 s, 6 blocks);
    profiled over plain read 0.995-1.119, 0.903-1.055 and 0.915-1.129
    in the same blocks. That spread, not the profiler, is what failed
    the 48-op version once at 1.128x."""

    def run_once():
        return _run_once(ops=OVERHEAD_OPS)

    run_once()  # warm caches so the first pair is not skewed
    plain_ms, profiled_ms, duty_cycles = [], [], []
    samples = 0
    for _ in range(OVERHEAD_REPEATS):
        report = run_once()
        plain_ms.append(report.wall_seconds * 1000.0)
        with SamplingProfiler(hz=67) as profiler:
            report = run_once()
        profiled_ms.append(report.wall_seconds * 1000.0)
        stats = profiler.stats()
        samples += stats.samples
        duty_cycles.append(stats.duty_cycle)

    plain = statistics.median(plain_ms)
    profiled = statistics.median(profiled_ms)
    wall_ratio = profiled / max(plain, 1e-6)
    ratio = 1.0 / (1.0 - statistics.median(duty_cycles))

    benchmark.extra_info["plain_ms"] = round(plain, 1)
    benchmark.extra_info["profiled_ms"] = round(profiled, 1)
    benchmark.extra_info["overhead_ratio"] = round(ratio, 3)
    benchmark.extra_info["wall_clock_ratio"] = round(wall_ratio, 3)
    record(
        "loadgen",
        profiled_ms,
        extra={
            "section": "profiler_overhead",
            "plain_ms": round(plain, 1),
            "profiled_ms": round(profiled, 1),
            "overhead_ratio": round(ratio, 3),
            "wall_clock_ratio": round(wall_ratio, 3),
            "profiler_samples": samples,
        },
    )
    assert samples > 0, "profiler collected no samples"
    assert ratio <= OVERHEAD_CEILING, (
        f"profiler overhead {ratio:.3f}x exceeds the "
        f"{OVERHEAD_CEILING:.2f}x ceiling "
        f"(wall clock: {profiled:.0f} ms vs {plain:.0f} ms)"
    )

    benchmark.pedantic(run_once, rounds=1, iterations=1)
