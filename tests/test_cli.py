"""CLI tests (run in-process through main())."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

SRC = str(Path(repro.__file__).resolve().parents[1])


class TestAnnotate:
    def test_annotate_title(self, capsys):
        assert main(
            ["annotate", "Tramonto sulla Mole Antonelliana"]
        ) == 0
        out = capsys.readouterr().out
        assert "language : it" in out
        assert "Mole_Antonelliana" in out

    def test_annotate_with_tags(self, capsys):
        assert main(["annotate", "a view", "--tags", "Coliseum"]) == 0
        out = capsys.readouterr().out
        assert "Colosseum" in out

    def test_annotate_lang_override(self, capsys):
        assert main(["annotate", "Torino", "--lang", "it"]) == 0
        assert "language : it" in capsys.readouterr().out


class TestAnnotateBatch:
    def test_parallel_report(self, capsys):
        assert main([
            "annotate-batch", "--contents", "20",
            "--workers", "2", "--batch-size", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "catalog   : 20 item(s), 2 worker(s)" in out
        assert "processed : 20" in out
        assert "failed: 0" in out
        assert "cache" in out
        assert "resolver" in out

    def test_fault_injection_degrades_not_fails(self, capsys):
        assert main([
            "annotate-batch", "--contents", "15",
            "--workers", "2", "--fail", "dbpedia",
        ]) == 0
        out = capsys.readouterr().out
        assert "failed: 0" in out
        assert "degraded  : 15 item(s)" in out

    def test_sequential_without_resilience(self, capsys):
        assert main([
            "annotate-batch", "--contents", "10",
            "--workers", "1", "--no-resilience",
        ]) == 0
        out = capsys.readouterr().out
        assert "sequential" in out
        assert "cache" not in out  # no resilience layer, no counters

    def test_unknown_failing_resolver_exits_2(self, capsys):
        assert main([
            "annotate-batch", "--contents", "5", "--fail", "nope",
        ]) == 2
        assert "unknown resolver" in capsys.readouterr().err

    def test_bad_failure_rate_exits_2(self, capsys):
        assert main([
            "annotate-batch", "--contents", "5",
            "--fail", "dbpedia:high",
        ]) == 2
        assert "bad failure rate" in capsys.readouterr().err

    def test_invalid_contents_exits_2(self, capsys):
        assert main(["annotate-batch", "--contents", "0"]) == 2
        assert "--contents" in capsys.readouterr().err


class TestDetect:
    def test_detect(self, capsys):
        assert main(
            ["detect", "una bellissima passeggiata stasera"]
        ) == 0
        assert capsys.readouterr().out.startswith("it ")


class TestQuery:
    NT = (
        '<http://x/s> <http://x/p> "hello" .\n'
        "<http://x/s> <http://x/q> <http://x/o> .\n"
    )

    def test_select(self, tmp_path, capsys):
        data = tmp_path / "data.nt"
        data.write_text(self.NT)
        assert main(
            ["query", str(data),
             "SELECT ?o WHERE { <http://x/s> <http://x/p> ?o }"]
        ) == 0
        out = capsys.readouterr().out
        assert "hello" in out
        assert "(1 row(s))" in out

    def test_ask(self, tmp_path, capsys):
        data = tmp_path / "data.nt"
        data.write_text(self.NT)
        assert main(["query", str(data), "ASK { ?s ?p ?o }"]) == 0
        assert capsys.readouterr().out.strip() == "yes"

    def test_construct(self, tmp_path, capsys):
        data = tmp_path / "data.nt"
        data.write_text(self.NT)
        assert main(
            ["query", str(data),
             "CONSTRUCT { ?s <http://x/new> ?o } "
             "WHERE { ?s <http://x/q> ?o }"]
        ) == 0
        assert "<http://x/new>" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(
            ["query", "/no/such/file.nt", "ASK { ?s ?p ?o }"]
        ) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(self.NT))
        assert main(["query", "-", "ASK { ?s ?p ?o }"]) == 0
        assert capsys.readouterr().out.strip() == "yes"


class TestDumpAndDemo:
    def test_dump_is_loadable_ntriples(self, capsys):
        from repro.rdf import load_ntriples

        assert main(["dump"]) == 0
        out = capsys.readouterr().out
        graph = load_ntriples(out)
        assert len(graph) > 10

    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Mole" in out

    def test_obs_demo_tables_each_stage_from_its_spans(self, capsys):
        assert main(["obs", "demo"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines.index(next(l for l in lines if l.startswith("stage")))
        rows = [line.split() for line in lines[header + 1:-1]]
        assert sorted(row[0] for row in rows) == [
            "broker", "filter", "langdetect", "morpho", "termfreq",
        ]
        for _, calls, _, mean, p95, peak, _ in rows:
            assert int(calls) == 30  # one span per gold title
            # nearest-rank: the p95 is an observed span, so at most the max
            assert float(mean) <= float(peak)
            assert 0.0 < float(p95) <= float(peak)


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestLintSeverity:
    # every lint mode funnels through one driver, so the severity
    # parse error must behave identically regardless of the mode
    @pytest.mark.parametrize("mode", [
        "--queries", "--mapping", "--self-check", "--concurrency",
    ])
    def test_unknown_severity_exits_2(self, capsys, mode):
        assert main(
            ["lint", mode, "--min-severity", "blocker"]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown severity 'blocker'" in err
        assert "info, warning, error" in err

    def test_known_severity_accepted(self, capsys):
        assert main(
            ["lint", "--queries", "--min-severity", "error"]
        ) == 0
        assert "diagnostic(s)" in capsys.readouterr().out

    def test_nothing_to_lint_exits_2(self, capsys):
        assert main(["lint"]) == 2
        err = capsys.readouterr().err
        assert "nothing to lint" in err
        assert "--concurrency" in err


CC_DIRTY = """\
import threading
import time

LOCK = threading.Lock()


def slow_section():
    with LOCK:
        time.sleep(0.1)
"""

CC_WARN_ONLY = """\
import threading

LOCK = threading.Lock()


def work():
    LOCK.acquire()
    step()
    LOCK.release()
"""

CC_LINES = """\
import threading


class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = {}

    def put(self, key, value):
        with self._lock:
            self._items[key] = value

    def peek(self, key):
        return self._items.get(key)


class Transfer:
    def __init__(self):
        self._accounts = threading.Lock()
        self._audit = threading.Lock()

    def debit(self):
        with self._accounts:
            with self._audit:
                pass

    def log(self):
        with self._audit:
            with self._accounts:
                pass


def guard(data):
    lock = threading.Lock()
    with lock:
        data.append(1)
"""


def _line_of(text, needle, start=0):
    """The 1-based line of the first ``needle`` at or after ``start``."""
    return text.count("\n", 0, text.index(needle, start)) + 1


class TestLintConcurrency:
    def test_clean_file_exits_0(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main(["lint", "--concurrency", str(target)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_dirty_file_exits_1(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text(CC_DIRTY)
        assert main(["lint", "--concurrency", str(target)]) == 1
        out = capsys.readouterr().out
        assert "CC003" in out

    def test_min_severity_filters_display_not_exit_code(
        self, tmp_path, capsys
    ):
        # exit code reflects *all* collected errors, not just the shown
        # slice — consistent with --queries/--mapping behavior
        target = tmp_path / "dirty.py"
        target.write_text(CC_DIRTY)
        assert main([
            "lint", "--concurrency", str(target),
            "--min-severity", "error",
        ]) == 1
        out = capsys.readouterr().out
        assert "CC003" in out

    def test_repro_package_default_target_is_clean(self, capsys):
        # the checked-in baseline: linting the package itself is clean
        assert main(["lint", "--concurrency"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_json_output_to_stdout(self, tmp_path, capsys):
        import json

        from repro.analysis import CATALOG_VERSION

        target = tmp_path / "dirty.py"
        target.write_text(CC_DIRTY)
        assert main([
            "lint", "--concurrency", str(target), "--json", "-",
        ]) == 1
        out = capsys.readouterr().out
        start, end = out.index("{"), out.rindex("}") + 1
        envelope = json.loads(out[start:end])
        assert envelope["catalog"] == CATALOG_VERSION
        payload = envelope["diagnostics"]
        assert any(entry["rule"] == "CC003" for entry in payload)
        entry = payload[0]
        assert set(entry) == {
            "rule", "severity", "message", "source", "line", "span",
            "suggestion",
        }

    def test_json_output_to_file(self, tmp_path, capsys):
        import json

        target = tmp_path / "dirty.py"
        target.write_text(CC_DIRTY)
        report = tmp_path / "report.json"
        assert main([
            "lint", "--concurrency", str(target),
            "--json", str(report),
        ]) == 1
        capsys.readouterr()
        envelope = json.loads(report.read_text())
        payload = envelope["diagnostics"]
        assert payload and payload[0]["severity"] == "error"

    def test_json_output_is_sorted_deterministically(
        self, tmp_path, capsys
    ):
        import json

        target = tmp_path / "dirty.py"
        target.write_text(CC_DIRTY)
        assert main([
            "lint", "--concurrency", str(target), "--json", "-",
        ]) == 1
        out = capsys.readouterr().out
        start, end = out.index("{"), out.rindex("}") + 1
        payload = json.loads(out[start:end])["diagnostics"]

        def key(entry):
            line = entry["line"]
            if line is None:
                line = entry["span"][0] if entry["span"] else 0
            return (
                entry["source"] or "", line, entry["rule"],
                entry["message"],
            )

        assert [key(e) for e in payload] == sorted(
            key(e) for e in payload
        )

    def test_diagnostics_name_source_lines(self, tmp_path, capsys):
        target = tmp_path / "lines.py"
        target.write_text(CC_LINES)
        expected = {
            "CC001": {_line_of(CC_LINES, "return self._items")},
            "CC002": {
                _line_of(CC_LINES, "with self._audit:",
                         CC_LINES.index("def debit")),
                _line_of(CC_LINES, "with self._accounts:",
                         CC_LINES.index("def log")),
            },
            "CC005": {
                _line_of(CC_LINES, "threading.Lock()",
                         CC_LINES.index("def guard")),
            },
        }
        assert main([
            "lint", "--concurrency", str(target), "--json", "-",
        ]) == 1
        out = capsys.readouterr().out
        start, end = out.index("{"), out.rindex("}") + 1
        payload = json.loads(out[start:end])["diagnostics"]
        for rule, lines in expected.items():
            entries = [e for e in payload if e["rule"] == rule]
            assert {e["line"] for e in entries} == lines, rule
            for line in lines:
                assert f"{target}:{line}: " in out[:start], rule

    def test_fail_on_warning_promotes_exit_code(self, tmp_path, capsys):
        target = tmp_path / "warn.py"
        target.write_text(CC_WARN_ONLY)
        # CC006 (manual acquire without try/finally) is a warning:
        # exit 0 under the default policy, 1 under --fail-on warning
        assert main(["lint", "--concurrency", str(target)]) == 0
        out = capsys.readouterr().out
        assert "CC006" in out
        assert main([
            "lint", "--concurrency", str(target), "--fail-on", "warning",
        ]) == 1

    def test_unknown_fail_on_exits_2(self, capsys):
        assert main([
            "lint", "--concurrency", "--fail-on", "fatal",
        ]) == 2
        assert "unknown severity" in capsys.readouterr().err

    def test_effects_mode_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--effects"])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_reader_closing_the_pipe_ends_the_run_quietly(self, tmp_path):
        # more diagnostics than a pipe holds: the run is still printing
        # when the reader, done after one line, closes its end
        target = tmp_path / "locks.py"
        target.write_text("import threading\n" + "".join(
            f"def guard_{i}():\n    lock = threading.Lock()\n"
            f"    with lock:\n        pass\n"
            for i in range(1000)
        ))
        env = dict(os.environ, PYTHONPATH=SRC)
        run = subprocess.Popen(
            [sys.executable, "-m", "repro", "lint", "--concurrency",
             str(target)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        reader = subprocess.Popen(
            [sys.executable, "-c", "import sys; sys.stdin.readline()"],
            stdin=run.stdout,
        )
        run.stdout.close()
        assert reader.wait(timeout=60) == 0
        err = run.stderr.read().decode()
        assert run.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err


class TestSanitize:
    def test_smoke_run_exits_0(self, capsys):
        assert main([
            "sanitize", "--contents", "10",
            "--workers", "2", "--batch-size", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "processed : 10" in out
        assert "inversions" in out

    def test_store_mode_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sanitize", "--store"])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_invalid_workers_exits_2(self, capsys):
        assert main(["sanitize", "--workers", "0"]) == 2
        assert "positive" in capsys.readouterr().err


class TestExplain:
    NT = (
        '<http://x/a> <http://xmlns.com/foaf/0.1/name> "ada" .\n'
        '<http://x/a> <http://purl.org/stuff/rev#rating> '
        '"4"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
    )

    def test_explain_raw_query_over_file(self, tmp_path, capsys):
        data = tmp_path / "data.nt"
        data.write_text(self.NT)
        assert main([
            "explain",
            "SELECT ?s WHERE { ?s rev:rating ?r . FILTER(?r > 3) }",
            "--file", str(data),
        ]) == 0
        out = capsys.readouterr().out
        assert "plan:" in out
        assert "est=" in out
        assert "actual=" in out
        assert "rows: 1" in out

    def test_explain_builtin_no_exec(self, tmp_path, capsys):
        data = tmp_path / "data.nt"
        data.write_text(self.NT)
        assert main([
            "explain", "Q1", "--file", str(data), "--no-exec"
        ]) == 0
        out = capsys.readouterr().out
        assert "== plan for Q1 ==" in out
        assert "actual=" not in out

    def test_explain_query_file(self, tmp_path, capsys):
        data = tmp_path / "data.nt"
        data.write_text(self.NT)
        rq = tmp_path / "q.rq"
        rq.write_text("SELECT ?s WHERE { ?s foaf:name ?n }")
        assert main([
            "explain", str(rq), "--file", str(data)
        ]) == 0
        assert "rows: 1" in capsys.readouterr().out

    def test_explain_missing_query_file(self, capsys):
        assert main(["explain", "@/nonexistent/q.rq"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_explain_syntax_error(self, tmp_path, capsys):
        data = tmp_path / "data.nt"
        data.write_text(self.NT)
        assert main([
            "explain", "SELECT WHERE {", "--file", str(data)
        ]) == 2
        assert "error" in capsys.readouterr().err


class TestObsLoadgen:
    def test_schedule_only_is_deterministic(self, capsys):
        assert main([
            "obs", "loadgen", "--mix", "default", "--seed", "7",
            "--ops", "40", "--schedule-only",
        ]) == 0
        first = capsys.readouterr().out
        assert main([
            "obs", "loadgen", "--mix", "default", "--seed", "7",
            "--ops", "40", "--schedule-only",
        ]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "schedule digest:" in first

    def test_unknown_mix_exits_2(self, capsys):
        assert main([
            "obs", "loadgen", "--mix", "bogus", "--schedule-only",
        ]) == 2
        assert "unknown mix" in capsys.readouterr().err

    def test_run_with_slo_and_artifacts(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        report = tmp_path / "report.json"
        assert main([
            "obs", "loadgen", "--mix", "default", "--seed", "7",
            "--ops", "48", "--workers", "2", "--base-contents", "10",
            "--slo", "--report", str(report),
            "--save-metrics", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "load run:" in out and "SLO" in out
        saved = json.loads(report.read_text())
        assert saved["slo"]["passed"] is True
        # the --report file is the load report, the verdict beside it
        bundle = json.loads(metrics.read_text())
        assert {k: v for k, v in saved.items() if k != "slo"} == (
            bundle["meta"]
        )
        assert set(saved["per_op"]) == {
            "upload", "search", "album", "mashup", "browse", "store_write",
        }

    def test_slo_reads_the_report_figures(self, tmp_path, capsys):
        """Each latency and freshness objective reads the report's own
        value for its op and quantile: both tables print the same
        digits, and ``obs slo --input`` re-judges the saved report and
        the saved bundle to the same verdict table."""
        report = tmp_path / "report.json"
        metrics = tmp_path / "metrics.json"
        status = main([
            "obs", "loadgen", "--mix", "default", "--seed", "7",
            "--ops", "48", "--workers", "4", "--slo",
            "--report", str(report), "--save-metrics", str(metrics),
        ])
        out = capsys.readouterr().out
        saved = json.loads(report.read_text())
        assert status == (0 if saved["slo"]["passed"] else 1)
        load_table, slo_table = out.split("\nSLO report: ")
        columns = {"p50": 3, "p95": 4, "p99": 5, "max": 6}
        load_rows = {
            line.split()[0]: line.split()
            for line in load_table.splitlines() if line.startswith("  ")
        }
        slo_rows = {
            line.split()[0]: line.split()
            for line in slo_table.splitlines() if line.startswith("  ")
        }
        judged = 0
        for objective in saved["slo"]["objectives"]:
            if objective["kind"] not in ("latency", "freshness"):
                continue
            column = objective["target_text"].split()[0]
            if objective["kind"] == "latency":
                row = saved["per_op"][objective["op"]]
                printed = load_rows[objective["op"]][columns[column]]
                assert printed == slo_rows[objective["name"]][5] + "ms"
            else:
                row = saved["freshness"]
            assert objective["observed"] * 1000.0 == pytest.approx(
                row[f"{column}_ms"], rel=1e-12
            )
            assert objective["samples"] == row["count"]
            judged += 1
        assert judged == 7

        table = "SLO report: " + slo_table.split("\nload report -> ")[0]
        for saved_file in (report, metrics):
            assert main(["obs", "slo", "--input", str(saved_file)]) == (
                status
            )
            assert capsys.readouterr().out.rstrip("\n") == table

    def test_uncovered_spec_exits_2_before_the_run(self, capsys):
        assert main([
            "obs", "loadgen", "--seed", "7", "--ops", "24", "--slo",
        ]) == 2
        captured = capsys.readouterr()
        assert "load run:" not in captured.out
        assert captured.err.startswith("error: ")
        assert "mashup, store_write" in captured.err

    def test_bad_slo_spec_exits_2_before_the_run(self, tmp_path, capsys):
        assert main([
            "obs", "loadgen", "--ops", "8",
            "--slo", str(tmp_path / "missing.json"),
        ]) == 2
        captured = capsys.readouterr()
        assert "load run:" not in captured.out
        assert captured.err.startswith("error: cannot load SLO spec")

    def test_report_without_slo_is_the_load_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main([
            "obs", "loadgen", "--seed", "7", "--ops", "16",
            "--workers", "2", "--base-contents", "10",
            "--report", str(report),
        ]) == 0
        assert "load report ->" in capsys.readouterr().out
        saved = json.loads(report.read_text())
        assert "per_op" in saved and "slo" not in saved

    def test_slo_verb_reads_saved_bundle(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert main([
            "obs", "loadgen", "--seed", "7", "--ops", "32",
            "--workers", "2", "--base-contents", "10",
            "--save-metrics", str(metrics),
        ]) == 0
        capsys.readouterr()
        assert main(["obs", "slo", "--input", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_profile_flag_samples_the_run(self, tmp_path, capsys):
        collapsed = tmp_path / "profile.collapsed.txt"
        assert main([
            "obs", "loadgen", "--seed", "7", "--ops", "200",
            "--workers", "2", "--base-contents", "10",
            f"--profile={collapsed}", "--profile-hz", "200",
        ]) == 0
        out = capsys.readouterr().out
        assert "profiler:" in out and "collapsed stacks ->" in out
        assert collapsed.read_text()

    def test_profile_and_health_verbs_are_gone(self, capsys):
        # `obs loadgen --profile` / `--slo` are the one way to do both
        for verb in ("profile", "health"):
            with pytest.raises(SystemExit) as refused:
                main(["obs", verb])
            assert refused.value.code == 2
        capsys.readouterr()

    def test_slo_verb_missing_input_exits_2(self, capsys):
        assert main([
            "obs", "slo", "--input", "/nonexistent/metrics.json",
        ]) == 2
        assert capsys.readouterr().err

    def test_slo_verb_refuses_what_is_not_a_load_report(
        self, tmp_path, capsys
    ):
        snapshot = tmp_path / "snapshot.json"
        snapshot.write_text('{"repro_plan_cache_total": {}}')
        assert main(["obs", "slo", "--input", str(snapshot)]) == 2
        assert "is not a load report" in capsys.readouterr().err
