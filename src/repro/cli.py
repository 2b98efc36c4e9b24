"""Command-line interface.

Usage::

    python -m repro annotate "Tramonto sulla Mole Antonelliana" --tags mole
    python -m repro annotate-batch --contents 200 --workers 4 --fail dbpedia
    python -m repro detect "una foto del mercato"
    python -m repro query data.nt "SELECT ?s WHERE { ?s ?p ?o } LIMIT 5"
    python -m repro demo
    python -m repro dump
    python -m repro lint --self-check
    python -m repro lint examples/ benchmarks/
    python -m repro lint --concurrency
    python -m repro sanitize --workers 4
    python -m repro store info /var/lib/repro/store
    python -m repro store recover /var/lib/repro/store

Each subcommand is a thin wrapper over the library; everything it prints
can be reproduced programmatically.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """``--trace[=FILE]`` / ``--metrics[=FILE]`` for commands that run
    instrumented code paths. Use the ``=FILE`` form when the flag is
    followed by a positional argument."""
    parser.add_argument(
        "--trace", nargs="?", const="", default=None, metavar="FILE",
        help="enable tracing and print the span tree after the run "
             "(with FILE, also append spans as JSON lines)",
    )
    parser.add_argument(
        "--metrics", nargs="?", const="", default=None, metavar="FILE",
        help="print the Prometheus metrics exposition after the run "
             "(with FILE, write it to FILE instead)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'LODifying personal content sharing' "
            "(EDBT 2012)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    annotate = sub.add_parser(
        "annotate",
        help="run the semantic annotation pipeline on a title",
    )
    annotate.add_argument("title")
    annotate.add_argument(
        "--tags", default="",
        help="comma-separated plain tags",
    )
    annotate.add_argument(
        "--lang", default=None,
        help="skip language detection and use this code",
    )
    _add_obs_flags(annotate)

    batch = sub.add_parser(
        "annotate-batch",
        help="batch-annotate a synthetic back catalog and report "
             "throughput + resolver health",
    )
    batch.add_argument(
        "--contents", type=int, default=100,
        help="synthetic catalog size (default: 100)",
    )
    batch.add_argument(
        "--workers", type=int, default=4,
        help="parallel annotation workers (default: 4; 1 = sequential)",
    )
    batch.add_argument(
        "--batch-size", type=int, default=25, dest="batch_size",
        help="items per checkpoint batch (default: 25)",
    )
    batch.add_argument(
        "--fail", default=None, metavar="RESOLVER[:RATE]",
        help="inject faults: make RESOLVER fail at RATE (default 1.0), "
             "e.g. --fail dbpedia or --fail geonames:0.3",
    )
    batch.add_argument(
        "--latency", type=float, default=0.0,
        help="simulated per-call resolver latency in seconds "
             "(default: 0)",
    )
    batch.add_argument(
        "--seed", type=int, default=0,
        help="fault-injection seed (default: 0)",
    )
    batch.add_argument(
        "--no-resilience", action="store_true", dest="no_resilience",
        help="call resolvers directly — no retry/breaker/cache layer",
    )
    batch.add_argument(
        "--retries", type=int, default=3,
        help="total attempts per resolver call (default: 3)",
    )
    batch.add_argument(
        "--timeout", type=float, default=None,
        help="per-call resolver timeout in seconds (default: none)",
    )
    _add_obs_flags(batch)

    detect = sub.add_parser(
        "detect", help="identify the language of a text"
    )
    detect.add_argument("text")

    query = sub.add_parser(
        "query", help="run a SPARQL query over an N-Triples file"
    )
    query.add_argument("file", help="N-Triples input ('-' for stdin)")
    query.add_argument("sparql")
    _add_obs_flags(query)

    sub.add_parser(
        "demo", help="run the Turin eTourism walkthrough"
    )

    sub.add_parser(
        "dump",
        help="print the demo platform's D2R N-Triples dump",
    )

    lint = sub.add_parser(
        "lint",
        help="statically analyze SPARQL queries, D2R mappings, dumps "
             "and (with --concurrency) the Python source itself",
    )
    lint.add_argument(
        "files", nargs="*",
        help="files or directories to lint (.rq/.sparql/.py; with "
             "--concurrency: Python sources, default src/repro)",
    )
    lint.add_argument(
        "--queries", action="store_true",
        help="lint the built-in queries (Q1/Q2/Q3/M1)",
    )
    lint.add_argument(
        "--mapping", action="store_true",
        help="lint the platform's D2R mapping against its schema",
    )
    lint.add_argument(
        "--self-check", action="store_true", dest="self_check",
        help="lint everything the system ships (queries, mapping, dump)",
    )
    lint.add_argument(
        "--concurrency", action="store_true",
        help="run the CC-rule concurrency analyzer over Python "
             "sources (positional paths, default: the repro package)",
    )
    lint.add_argument(
        "--min-severity", default="info",
        help="hide diagnostics below this severity "
             "(info, warning or error; default: info)",
    )
    lint.add_argument(
        "--fail-on", default="error", dest="fail_on",
        help="exit non-zero when any diagnostic at or above this "
             "severity exists (info, warning or error; default: error)",
    )
    lint.add_argument(
        "--json", default=None, metavar="FILE", dest="json_out",
        help="also write the diagnostics as a JSON object "
             "({catalog, diagnostics}) to FILE ('-' for stdout)",
    )

    sanitize = sub.add_parser(
        "sanitize",
        help="run a parallel batch-annotation workload under the "
             "runtime lock sanitizer and report inversions/long holds",
    )
    sanitize.add_argument(
        "--contents", type=int, default=60,
        help="synthetic catalog size (default: 60)",
    )
    sanitize.add_argument(
        "--workers", type=int, default=4,
        help="parallel annotation workers (default: 4)",
    )
    sanitize.add_argument(
        "--batch-size", type=int, default=20, dest="batch_size",
        help="items per checkpoint batch (default: 20)",
    )

    explain = sub.add_parser(
        "explain",
        help="plan a query and print the annotated algebra tree",
    )
    explain.add_argument(
        "query",
        help="builtin query name (Q1/Q2/Q3/M1), a .rq/.sparql "
             "path (or @path), or raw SPARQL text",
    )
    explain.add_argument(
        "--file", default=None,
        help="N-Triples data to plan against ('-' for stdin; default: "
             "a synthetic Turin workload)",
    )
    explain.add_argument(
        "--contents", type=int, default=100,
        help="synthetic workload size when --file is not given "
             "(default: 100)",
    )
    explain.add_argument(
        "--no-exec", action="store_true", dest="no_exec",
        help="plan only — skip execution (no actual cardinalities)",
    )
    explain.add_argument(
        "--compare", action="store_true",
        help="also run and time the naive evaluation path",
    )
    _add_obs_flags(explain)

    store = sub.add_parser(
        "store",
        help="inspect and maintain an on-disk MVCC quad-store "
             "(WAL + snapshots)",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    def _store_policy_flags(parser) -> None:
        parser.add_argument(
            "--checkpoint-ops", type=int, metavar="N", default=None,
            help="auto-checkpoint once N effective ops were committed "
                 "since the last checkpoint",
        )
        parser.add_argument(
            "--checkpoint-wal-bytes", type=int, metavar="N",
            default=None,
            help="auto-checkpoint once the WAL tail exceeds N bytes",
        )
        parser.add_argument(
            "--group-commit", action="store_true", dest="group_commit",
            help="coalesce concurrent commit batches into shared WAL "
                 "flushes (one fsync per group)",
        )

    store_info = store_sub.add_parser(
        "info",
        help="print generation, sizes, WAL state (sealed segments "
             "included), snapshots, checkpoint policy, group-commit "
             "stats and the recovery outcome of opening the store",
    )
    store_info.add_argument("directory", help="store directory")
    store_compact = store_sub.add_parser(
        "compact",
        help="fold overlays, seal the WAL, merge it into a fresh "
             "snapshot and prune old snapshot files",
    )
    store_compact.add_argument("directory", help="store directory")
    store_recover = store_sub.add_parser(
        "recover",
        help="replay snapshot + sealed segments + WAL, truncate any "
             "torn tail, and report what was restored (the last "
             "committed generation); refuses a gap in the generations",
    )
    store_recover.add_argument("directory", help="store directory")
    store_load = store_sub.add_parser(
        "load",
        help="load an N-Quads (or N-Triples) file into the store as "
             "one committed generation",
    )
    store_load.add_argument("directory", help="store directory")
    store_load.add_argument("file", help="N-Quads input ('-' for stdin)")
    _store_policy_flags(store_load)
    store_dump = store_sub.add_parser(
        "dump",
        help="print the store's content as canonical sorted N-Quads",
    )
    store_dump.add_argument("directory", help="store directory")

    obs = sub.add_parser(
        "obs", help="observability utilities (tracing + metrics)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_demo = obs_sub.add_parser(
        "demo",
        help="annotate the gold workload under tracing and print the "
             "Figure 1 stage-latency breakdown",
    )
    obs_demo.add_argument(
        "--tree", action="store_true",
        help="also print the span tree of the first annotated title",
    )

    obs_loadgen = obs_sub.add_parser(
        "loadgen",
        help="drive a deterministic mixed traffic load (uploads, "
             "search, albums, mashups, browsing, store writes) against "
             "a fresh platform + store and report latency distributions",
    )
    obs_loadgen.add_argument(
        "--mix", default="default",
        help="traffic mix: default, read-heavy, write-heavy, ingest",
    )
    obs_loadgen.add_argument("--seed", type=int, default=42)
    obs_loadgen.add_argument(
        "--ops", type=int, default=60, help="operations to execute"
    )
    obs_loadgen.add_argument(
        "--workers", type=int, default=4, help="worker threads"
    )
    obs_loadgen.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="closed-loop (back-to-back) or open-loop (paced arrivals)",
    )
    obs_loadgen.add_argument(
        "--rate", type=float, default=20.0,
        help="open-loop arrival rate in ops/second",
    )
    obs_loadgen.add_argument(
        "--base-contents", type=int, default=25,
        help="pre-loaded contents before the run starts",
    )
    obs_loadgen.add_argument(
        "--schedule-only", action="store_true",
        help="print the deterministic operation schedule and exit",
    )
    obs_loadgen.add_argument(
        "--slo", nargs="?", const="", default=None, metavar="SPEC",
        help="judge the run's load report against SLOs (default spec, "
             "or a JSON spec file); exits 1 on breach, 2 before the "
             "run when the spec is bad or the schedule draws no op "
             "an objective needs",
    )
    obs_loadgen.add_argument(
        "--report", metavar="FILE",
        help="write the load report as JSON (with --slo, the verdict "
             "under \"slo\")",
    )
    obs_loadgen.add_argument(
        "--save-metrics", metavar="FILE",
        help="write the run's metrics snapshot + metadata as JSON "
             "(consumable by 'repro obs slo --input')",
    )
    obs_loadgen.add_argument(
        "--profile", nargs="?", const="", default=None, metavar="FILE",
        help="sample the run with the wall-clock profiler (optionally "
             "writing collapsed stacks to FILE)",
    )
    obs_loadgen.add_argument(
        "--profile-hz", type=float, default=67.0,
        help="profiler sampling rate",
    )

    obs_slo = obs_sub.add_parser(
        "slo",
        help="judge a saved load report against an SLO spec and "
             "emit a structured pass/fail report (exit 1 on breach)",
    )
    obs_slo.add_argument(
        "--input", required=True, metavar="FILE",
        help="a 'repro obs loadgen --report' file or a "
             "'--save-metrics' bundle",
    )
    obs_slo.add_argument(
        "--spec", metavar="FILE",
        help="JSON SLO spec (omit for the default loadgen spec)",
    )
    obs_slo.add_argument(
        "--report", metavar="FILE", help="write the report as JSON"
    )
    return parser


def _read_text(path: str) -> Optional[str]:
    """The text of ``path`` (``-`` is stdin); ``None`` once an
    unreadable file has been reported on stderr."""
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None


def _demo_platform(n_contents: int, n_users: int):
    """The seeded synthetic Turin catalog the workload verbs run on."""
    from .platform import Platform
    from .workloads import (
        WorkloadConfig,
        generate_workload,
        populate_platform,
    )

    platform = Platform()
    populate_platform(platform, generate_workload(WorkloadConfig(
        n_users=n_users,
        n_contents=n_contents,
        cities=("Turin",),
        seed=42,
    )))
    return platform


def _cmd_annotate(args) -> int:
    from .core import build_default_annotator

    tags = [t for t in args.tags.split(",") if t]
    annotator = build_default_annotator()
    result = annotator.annotate(args.title, tags, language=args.lang)
    print(f"language : {result.language}")
    print(f"NP lemmas: {', '.join(result.np_lemmas) or '-'}")
    print(f"tf words : {', '.join(result.frequency_words) or '-'}")
    print(f"words    : {', '.join(result.words) or '-'}")
    if not result.words:
        return 0
    for word in result.words:
        outcome = result.outcome_for(word)
        if outcome is None:
            continue
        if outcome.annotated:
            chosen = outcome.chosen
            print(f"  {word!r} -> {chosen.resource} [{chosen.graph}]")
        else:
            print(f"  {word!r} -> ({outcome.reason.value})")
    return 0


def _cmd_annotate_batch(args) -> int:
    import time

    from .core import BatchAnnotator
    from .core.annotator import SemanticAnnotator
    from .core.filtering import SemanticFilter
    from .lod import build_lod_corpus
    from .resolvers import SemanticBroker, default_resolvers
    from .resolvers.resilience import (
        FlakyResolver,
        RetryPolicy,
        wrap_resilient,
    )

    if args.contents <= 0:
        print("error: --contents must be positive", file=sys.stderr)
        return 2
    if args.workers <= 0 or args.batch_size <= 0:
        print("error: --workers and --batch-size must be positive",
              file=sys.stderr)
        return 2

    platform = _demo_platform(
        args.contents, max(10, args.contents // 50)
    )

    corpus = build_lod_corpus()
    resolvers = default_resolvers(corpus)
    if args.latency:
        resolvers = [
            FlakyResolver(r, failure_rate=0.0, latency=args.latency)
            for r in resolvers
        ]
    if args.fail is not None:
        name, _, rate_text = args.fail.partition(":")
        try:
            rate = float(rate_text) if rate_text else 1.0
        except ValueError:
            print(f"error: bad failure rate {rate_text!r}",
                  file=sys.stderr)
            return 2
        known = {r.name for r in resolvers}
        if name not in known:
            print(f"error: unknown resolver {name!r} "
                  f"(known: {', '.join(sorted(known))})",
                  file=sys.stderr)
            return 2
        resolvers = [
            FlakyResolver(r, failure_rate=rate, seed=args.seed)
            if r.name == name else r
            for r in resolvers
        ]
    if not args.no_resilience:
        resolvers = wrap_resilient(
            resolvers,
            retry=RetryPolicy(
                attempts=max(1, args.retries),
                base_delay=0.001,
                max_delay=0.05,
            ),
            timeout=args.timeout,
        )
    platform.annotator = SemanticAnnotator(
        SemanticBroker(resolvers), SemanticFilter(corpus)
    )

    batch = BatchAnnotator(
        platform, batch_size=args.batch_size, workers=args.workers
    )
    started = time.perf_counter()
    stats = batch.run()
    elapsed = time.perf_counter() - started

    mode = (
        f"{args.workers} worker(s)" if args.workers > 1 else "sequential"
    )
    print(f"catalog   : {args.contents} item(s), {mode}, "
          f"batch size {args.batch_size}")
    print(f"processed : {stats.processed}  annotated: {stats.annotated}"
          f"  triples: {stats.triples_added}  failed: {stats.failed}")
    if stats.degraded_items:
        print(f"degraded  : {stats.degraded_items} item(s) annotated "
              f"from partial candidates "
              f"({stats.resolver_failures} isolated resolver "
              f"failure(s))")
    if stats.resolver_report:
        print(f"cache     : {stats.cache_hit_rate:.1%} hit rate "
              f"({stats.cache_hits} hits / {stats.cache_misses} "
              f"misses)")
        print(f"retries   : {stats.retries}  timeouts: {stats.timeouts}"
              f"  breaker trips: {stats.breaker_trips}")
        header = (f"{'resolver':<10} {'calls':>6} {'ok':>5} "
                  f"{'fail':>5} {'retry':>6} {'trips':>6} "
                  f"{'state':<9} {'mean ms':>8}")
        print(header)
        for name in sorted(stats.resolver_report):
            s = stats.resolver_report[name]
            print(f"{name:<10} {s.calls:>6} {s.successes:>5} "
                  f"{s.failures:>5} {s.retries:>6} "
                  f"{s.breaker_trips:>6} {s.breaker_state:<9} "
                  f"{s.mean_latency_ms:>8.2f}")
    rate = stats.processed / elapsed if elapsed else 0.0
    print(f"elapsed   : {elapsed:.2f} s ({rate:.1f} item(s)/s)")
    return 0


def _cmd_detect(args) -> int:
    from .nlp import default_detector

    detection = default_detector().detect_with_confidence(args.text)
    print(f"{detection.language} (confidence {detection.confidence:.3f})")
    return 0


def _cmd_query(args) -> int:
    from .rdf import load_ntriples
    from .sparql import Evaluator, SelectResult
    from .rdf.graph import Graph

    text = _read_text(args.file)
    if text is None:
        return 2
    graph = load_ntriples(text)
    result = Evaluator(graph).evaluate(args.sparql)
    if isinstance(result, SelectResult):
        print(result.to_table())
        print(f"({len(result)} row(s))")
    elif isinstance(result, bool):
        print("yes" if result else "no")
    elif isinstance(result, Graph):
        output = result.serialize("ntriples")
        print(output, end="" if output.endswith("\n") else "\n")
    return 0


def _cmd_demo(args) -> int:
    import runpy
    from pathlib import Path

    script = (
        Path(__file__).resolve().parent.parent.parent
        / "examples" / "etourism_trip.py"
    )
    if script.exists():
        runpy.run_path(str(script), run_name="__main__")
        return 0
    # installed without the examples directory: run a compact inline demo
    from .core import geo_album
    from .platform import Capture, Platform
    from .sparql import Point

    platform = Platform()
    platform.register_user("walter", "Walter Goix")
    platform.upload(Capture(
        username="walter",
        title="Tramonto sulla Mole Antonelliana",
        tags=("mole",),
        timestamp=1_325_376_000,
        point=Point(7.6930, 45.0690),
    ))
    album = geo_album("Mole Antonelliana", radius_km=0.3)
    for link in album.links(platform.evaluator()):
        print(link)
    return 0


def _cmd_dump(args) -> int:
    from .platform import Capture, Platform
    from .sparql import Point

    platform = Platform()
    platform.register_user("oscar", "Oscar Rodriguez")
    platform.register_user("walter", "Walter Goix")
    platform.add_friendship("oscar", "walter")
    platform.upload(Capture(
        username="walter",
        title="Coliseum interior",
        tags=("coliseum", "rome"),
        timestamp=1_325_376_000,
        point=Point(12.4924, 41.8902),
    ))
    print(platform.dump_ntriples(), end="")
    return 0


def _collect_lint_diagnostics(args) -> "object":
    """Fill one :class:`DiagnosticReport` from every requested mode.

    Every lint mode funnels through here so severity filtering, JSON
    output and exit-code policy cannot drift between modes — they are
    applied exactly once, in :func:`_cmd_lint`.
    """
    from pathlib import Path

    from .analysis import (
        DiagnosticReport,
        SparqlLinter,
        builtin_queries,
        lint_path,
        self_check,
    )

    report = DiagnosticReport()
    linter = SparqlLinter.default()
    if args.self_check:
        report.extend(self_check(linter))
    else:
        if args.queries:
            for name, query in builtin_queries():
                report.extend(linter.lint(query, name=name))
        if args.mapping:
            from .analysis import MappingLinter
            from .platform import Platform

            platform = Platform()
            report.extend(MappingLinter().lint(
                platform.mapping, platform.db, name="platform-mapping"
            ))
    if args.concurrency:
        from .analysis.concurrency import analyze_paths

        targets = [Path(p) for p in args.files]
        if not targets:
            # default: the installed repro package itself
            targets = [Path(__file__).resolve().parent]
        report.extend(analyze_paths(targets))
    else:
        for path in args.files:
            report.extend(lint_path(Path(path), linter))
    return report


def _diagnostics_as_json(report) -> str:
    """Render ``report`` as a machine-readable JSON envelope.

    The envelope carries the rule-catalog version (so CI artifacts can
    be compared across revisions) and the diagnostics sorted by
    ``(source, line, rule, message)`` — the order is deterministic
    regardless of which lint modes produced them or in what order.
    """
    import json

    from .analysis import CATALOG_VERSION

    def _line(diag) -> int:
        if diag.line is not None:
            return diag.line
        if diag.span is not None:
            return diag.span.start
        return 0

    payload = []
    for diag in sorted(
        report,
        key=lambda d: (d.source or "", _line(d), d.rule, d.message),
    ):
        payload.append({
            "rule": diag.rule,
            "severity": diag.severity.name.lower(),
            "message": diag.message,
            "source": diag.source,
            "line": diag.line,
            "span": (
                [diag.span.start, diag.span.end] if diag.span else None
            ),
            "suggestion": diag.suggestion,
        })
    envelope = {"catalog": CATALOG_VERSION, "diagnostics": payload}
    return json.dumps(envelope, indent=2, sort_keys=True)


def _cmd_lint(args) -> int:
    from .analysis import Severity

    severities = []
    for text in (args.min_severity, args.fail_on):
        try:
            severities.append(Severity.parse(text))
        except ValueError:
            allowed = ", ".join(s.name.lower() for s in Severity)
            print(
                f"error: unknown severity {text!r} (allowed: {allowed})",
                file=sys.stderr,
            )
            return 2
    min_severity, fail_on = severities

    if not (
        args.files or args.queries or args.mapping
        or args.self_check or args.concurrency
    ):
        print("error: nothing to lint (give files or --queries/--mapping/"
              "--self-check/--concurrency)", file=sys.stderr)
        return 2

    from .sparql.errors import SparqlSyntaxError

    try:
        report = _collect_lint_diagnostics(args)
    except (OSError, SyntaxError, SparqlSyntaxError, ValueError) as exc:
        print(f"error: cannot lint: {exc}", file=sys.stderr)
        return 1

    rendered = report.render(min_severity)
    if rendered:
        print(rendered)
    if args.json_out is not None:
        text = _diagnostics_as_json(report)
        if args.json_out == "-":
            print(text)
        else:
            with open(args.json_out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
    shown = len(report.at_least(min_severity))
    errors = len(report.errors)
    print(f"{len(report)} diagnostic(s) ({shown} shown, "
          f"{errors} error(s))")
    return 1 if report.at_least(fail_on) else 0


def _cmd_sanitize(args) -> int:
    from .analysis.sanitizer import LockSanitizer
    from .core import BatchAnnotator

    if args.contents <= 0 or args.workers <= 0 or args.batch_size <= 0:
        print("error: --contents, --workers and --batch-size must be "
              "positive", file=sys.stderr)
        return 2

    sanitizer = LockSanitizer()
    with sanitizer.installed():
        platform = _demo_platform(
            args.contents, max(5, args.contents // 20)
        )
        batch = BatchAnnotator(
            platform, batch_size=args.batch_size, workers=args.workers
        )
        stats = batch.run()

    report = sanitizer.report()
    print(f"workload  : {args.contents} item(s), {args.workers} "
          f"worker(s), batch size {args.batch_size}")
    print(f"processed : {stats.processed}  annotated: {stats.annotated}"
          f"  failed: {stats.failed}")
    print()
    print(report.render())
    return 1 if report.inversions else 0


def _cmd_explain(args) -> int:
    from .analysis import builtin_queries
    from .sparql import Evaluator
    from .sparql.parser import SparqlSyntaxError

    builtins = dict(builtin_queries())
    name = None
    if args.query in builtins:
        name = args.query
        text = builtins[args.query]
    elif args.query.startswith("@") or args.query.endswith(
        (".rq", ".sparql")
    ):
        name = args.query.lstrip("@")
        text = _read_text(name)
        if text is None:
            return 2
    else:
        text = args.query

    if args.file is not None:
        from .rdf import load_ntriples

        source = _read_text(args.file)
        if source is None:
            return 2
        graph = load_ntriples(source)
    else:
        graph = _demo_platform(
            args.contents, max(10, args.contents // 50)
        ).union_graph()

    evaluator = Evaluator(graph)
    try:
        explanation = evaluator.explain(
            text,
            name=name,
            execute=not args.no_exec,
            compare=args.compare,
        )
    except SparqlSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(explanation.render())
    return 0


def _cmd_store(args) -> int:
    from .store import StoreError

    try:
        return _store_command(args)
    except StoreError as exc:
        # e.g. a generation gap: recovery refuses to open the directory
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _store_command(args) -> int:
    import json
    from pathlib import Path

    from .store import CheckpointPolicy, QuadStore
    from .store.persistence import (
        WAL_FILENAME,
        sealed_segments,
        snapshot_files,
    )

    directory = Path(args.directory)
    if args.store_command != "load" and not (
        (directory / WAL_FILENAME).is_file()
        or snapshot_files(directory) or sealed_segments(directory)
    ):
        # opening a QuadStore would create an empty one at a typo
        print(f"error: no store at {directory} (no {WAL_FILENAME} "
              f"and no snapshot)", file=sys.stderr)
        return 2

    def policy_kwargs() -> dict:
        kwargs: dict = {}
        if args.checkpoint_ops is not None or (
            args.checkpoint_wal_bytes is not None
        ):
            kwargs["checkpoint_policy"] = CheckpointPolicy(
                ops=args.checkpoint_ops,
                wal_bytes=args.checkpoint_wal_bytes,
            )
        if args.group_commit:
            kwargs["group_commit"] = True
        return kwargs

    if args.store_command == "info":
        with QuadStore(args.directory) as store:
            print(json.dumps(store.info(), indent=2, sort_keys=True))
        return 0

    if args.store_command == "compact":
        with QuadStore(args.directory) as store:
            summary = store.compact()
            print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    if args.store_command == "recover":
        # opening the store *is* the recovery: newest readable snapshot
        # + sealed WAL segments + committed WAL tail, with any torn
        # trailing record truncated
        with QuadStore(args.directory) as store:
            report = store.recovery
            if report is not None:
                print(report.render())
            print(f"generation: {store.generation}")
            print(f"quads: {store.size}")
        return 0

    if args.store_command == "load":
        from .rdf.nquads import parse_nquads
        from .store.wal import OP_ADD

        text = _read_text(args.file)
        if text is None:
            return 2
        with QuadStore(args.directory, **policy_kwargs()) as store:
            ops = [
                (OP_ADD, (s, p, o), graph)
                for s, p, o, graph in parse_nquads(text)
            ]
            generation, effective = store.apply(ops)
            # let a policy-triggered checkpoint finish before closing,
            # so the replay cost the flags asked to bound is bounded
            store.wait_for_checkpoints()
            print(
                f"loaded {effective} new quad(s) "
                f"({len(ops)} statement(s)) at generation {generation}"
            )
        return 0

    if args.store_command == "dump":
        with QuadStore(args.directory) as store:
            sys.stdout.write(store.to_nquads())
        return 0

    raise AssertionError(args.store_command)  # pragma: no cover


def _cmd_obs(args) -> int:
    if args.obs_command == "demo":
        return _cmd_obs_demo(args)
    if args.obs_command == "loadgen":
        return _cmd_obs_loadgen(args)
    if args.obs_command == "slo":
        return _cmd_obs_slo(args)
    print(f"error: unknown obs command {args.obs_command!r}",
          file=sys.stderr)
    return 2


def _write_json(path: str, payload) -> None:
    import json

    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _cmd_obs_loadgen(args) -> int:
    from .obs import (
        MetricsRegistry,
        SamplingProfiler,
        SLOError,
        SLOSpec,
        default_slo,
        evaluate_slo,
        set_registry,
    )
    from .workloads.loadgen import (
        LoadConfig,
        LoadGenerator,
        build_schedule,
        render_schedule,
        schedule_digest,
    )

    try:
        config = LoadConfig(
            mix=args.mix,
            seed=args.seed,
            ops=args.ops,
            workers=args.workers,
            mode=args.mode,
            rate=args.rate,
            base_contents=args.base_contents,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    schedule = build_schedule(config)
    if args.schedule_only:
        print(render_schedule(schedule))
        print(f"schedule digest: {schedule_digest(schedule)}")
        return 0
    spec = None
    if args.slo is not None:
        try:
            spec = SLOSpec.load(args.slo) if args.slo else default_slo()
        except SLOError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        missing = spec.ops() - {op.kind for op in schedule}
        if missing:
            print(
                f"error: SLO spec {spec.name!r} needs op(s) the "
                f"schedule (mix={config.mix} seed={config.seed} "
                f"ops={config.ops}) never draws: "
                f"{', '.join(sorted(missing))}",
                file=sys.stderr,
            )
            return 2

    profiler = profile_path = None
    if args.profile is not None:
        profiler = SamplingProfiler(hz=args.profile_hz)
        profile_path = args.profile or None

    registry = MetricsRegistry()
    previous = set_registry(registry)
    stats = None
    try:
        generator = LoadGenerator(config)
        generator.setup()
        if profiler is not None:
            profiler.start()
        try:
            report = generator.run()
        finally:
            if profiler is not None:
                stats = profiler.stop()
    finally:
        set_registry(previous)

    print(report.render())
    if profiler is not None and stats is not None:
        print(
            f"profiler: {stats.samples} sample(s) over "
            f"{stats.threads_seen} thread(s), "
            f"duty cycle {stats.duty_cycle:.2%}"
        )
        if profile_path:
            written = profiler.write_collapsed(profile_path)
            print(f"collapsed stacks -> {written}")
        else:
            for frame, count in profiler.top(5):
                print(f"  {count:>5}  {frame}")
    if args.save_metrics:
        _write_json(args.save_metrics, {
            "meta": report.to_dict(),
            "metrics": report.metrics,
        })
        print(f"metrics snapshot -> {args.save_metrics}")

    payload = report.to_dict()
    status = 0
    if spec is not None:
        try:
            verdict = evaluate_slo(spec, payload)
        except SLOError as exc:  # e.g. no upload of the run was synced
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print()
        print(verdict.render())
        payload["slo"] = verdict.to_dict()
        status = 0 if verdict.passed else 1
    if args.report:
        _write_json(args.report, payload)
        print(f"load report -> {args.report}")
    return status


def _cmd_obs_slo(args) -> int:
    import json

    from .obs import SLOError, SLOSpec, default_slo, evaluate_slo

    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    # a --save-metrics bundle carries the load report as its "meta"
    load_report = (
        payload.get("meta", payload) if isinstance(payload, dict) else None
    )
    if not isinstance(load_report, dict) or "per_op" not in load_report:
        print(f"error: {args.input} is not a load report",
              file=sys.stderr)
        return 2
    try:
        spec = SLOSpec.load(args.spec) if args.spec else default_slo()
        report = evaluate_slo(spec, load_report)
    except SLOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if args.report:
        _write_json(args.report, report.to_dict())
        print(f"SLO report -> {args.report}")
    return 0 if report.passed else 1


def _cmd_obs_demo(args) -> int:
    """Annotate the gold workload under an enabled tracer and report
    where the Figure 1 pipeline spends its time, stage by stage, from
    the ``annotate.<stage>`` spans (exact nearest-rank p95, as a load
    report computes it)."""
    import time

    from .core import build_default_annotator
    from .obs import (
        InMemorySpanExporter,
        MetricsRegistry,
        Tracer,
        render_span_tree,
        set_registry,
        set_tracer,
    )
    from .workloads import GOLD_CORPUS
    from .workloads.loadgen import _distribution

    buffer = InMemorySpanExporter()
    previous_registry = set_registry(MetricsRegistry())
    previous_tracer = set_tracer(
        Tracer(enabled=True, exporters=[buffer])
    )
    try:
        annotator = build_default_annotator()
        started = time.perf_counter()
        for example in GOLD_CORPUS:
            annotator.annotate(example.title, example.tags)
        total_s = time.perf_counter() - started
    finally:
        set_tracer(previous_tracer)
        set_registry(previous_registry)

    print(f"gold workload: {len(GOLD_CORPUS)} title(s) annotated in "
          f"{total_s * 1000.0:.1f} ms")
    stages: dict = {}
    for span in buffer.spans():
        pipeline, _, stage = span.name.partition(".")
        if pipeline == "annotate" and stage:
            stages.setdefault(stage, []).append(span.duration)
    if stages:
        print()
        print(f"{'stage':<12} {'calls':>6} {'total ms':>9} "
              f"{'mean ms':>8} {'p95 ms':>8} {'max ms':>8} "
              f"{'share':>6}")
        totals = {stage: sum(seconds) for stage, seconds in stages.items()}
        accounted = sum(totals.values())
        for stage in sorted(stages, key=lambda name: -totals[name]):
            row = _distribution(stages[stage])
            share = totals[stage] / accounted if accounted else 0.0
            print(f"{stage:<12} {int(row['count']):>6} "
                  f"{totals[stage] * 1000.0:>9.1f} "
                  f"{row['mean_ms']:>8.2f} "
                  f"{row['p95_ms']:>8.2f} "
                  f"{row['max_ms']:>8.2f} "
                  f"{share:>6.1%}")
        print(f"{'(stages)':<12} {'':>6} {accounted * 1000.0:>9.1f}")
    if args.tree:
        spans = buffer.spans()
        roots = [
            s for s in spans
            if s.name == "annotate" and s.parent_id is None
        ]
        if roots:
            first = roots[0]
            members = [
                s for s in spans if s.trace_id == first.trace_id
            ]
            print()
            print("== first title's span tree ==")
            print(render_span_tree(members))
    return 0


def _obs_begin(args):
    """Install an enabled tracer when ``--trace`` was given; returns
    the state _obs_end needs (or None when tracing stays off)."""
    if getattr(args, "trace", None) is None:
        return None
    from .obs import (
        InMemorySpanExporter,
        JsonLinesExporter,
        Tracer,
        set_tracer,
    )

    buffer = InMemorySpanExporter()
    exporters = [buffer]
    file_exporter = None
    if args.trace:
        file_exporter = JsonLinesExporter(args.trace)
        exporters.append(file_exporter)
    previous = set_tracer(Tracer(enabled=True, exporters=exporters))
    return {
        "buffer": buffer,
        "file": file_exporter,
        "previous": previous,
    }


def _obs_end(obs, args) -> None:
    """Print/dump the trace and metrics the command accumulated."""
    if obs is not None:
        from .obs import render_span_tree, set_tracer

        set_tracer(obs["previous"])
        if obs["file"] is not None:
            obs["file"].close()
        spans = obs["buffer"].spans()
        if spans:
            print()
            print("== trace ==")
            print(render_span_tree(spans))
            if obs["buffer"].dropped:
                print(f"({obs['buffer'].dropped} older span(s) "
                      f"evicted from the ring buffer)")
    if getattr(args, "metrics", None) is not None:
        from .obs import get_registry

        text = get_registry().prometheus()
        if args.metrics:
            with open(args.metrics, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            print()
            print("== metrics ==")
            print(text, end="")


_COMMANDS = {
    "annotate": _cmd_annotate,
    "annotate-batch": _cmd_annotate_batch,
    "detect": _cmd_detect,
    "query": _cmd_query,
    "demo": _cmd_demo,
    "dump": _cmd_dump,
    "lint": _cmd_lint,
    "sanitize": _cmd_sanitize,
    "explain": _cmd_explain,
    "store": _cmd_store,
    "obs": _cmd_obs,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        obs = _obs_begin(args)
        try:
            return _COMMANDS[args.command](args)
        finally:
            _obs_end(obs, args)
    except BrokenPipeError:
        # the reader closed the pipe (``repro lint ... | head -1``): what
        # is left to print has nowhere to go, and the interpreter's
        # final flush must not fail on it either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
