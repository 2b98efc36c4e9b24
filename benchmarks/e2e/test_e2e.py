"""Self-test of the end-to-end benchmark at 1/20 of its op counts.

Run with ``python -m pytest benchmarks/e2e`` (not part of tier-1: the
repo's ``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import re

import pytest

import e2e_spans
import e2e_speed
import e2e_workloads
import run

SECONDS = 0.5  # 1/20 of BENCHMARK.json's run_seconds
SEED = 11      # not the pinned seed: digests are reported, not checked
EXACT = (
    "platform.semanticize_calls",
    "sparql.rows_scanned_per_result",
    "core.annotate_calls_per_mutation",
)


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Every workload once untraced and twice traced (for exact counts)."""
    trace_dir = tmp_path_factory.mktemp("traces")
    out = {}
    # exact counts need every op replayed, however slow the machine is
    patch = pytest.MonkeyPatch()
    patch.setattr(run, "DEADLINE_FACTOR", 1000.0)
    for name in e2e_workloads.WORKLOADS:
        out[name, 0] = run.run_workload(name, SEED, SECONDS, False, {})
        out[name, 1] = run.run_workload(
            name, SEED, SECONDS, True, {},
            trace_out=str(trace_dir / f"{name}.json"),
        )
        out[name, 2] = run.run_workload(name, SEED, SECONDS, True, {})
        out[name, "spans"] = json.loads(
            (trace_dir / f"{name}.json").read_text(encoding="utf-8")
        )
    patch.undo()
    return out


def test_spec_shape(spec):
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(e2e_workloads.WORKLOADS)
    assert len(names) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    metric_names = [
        m["name"] for m in spec["end_to_end"] + spec["per_layer"]
    ]
    assert len(set(metric_names)) == len(metric_names)
    for name in names + metric_names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_every_workload_is_correct_and_prints_every_metric(spec, results):
    for name in e2e_workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = results[name, trace]
            assert result["correct"], result["failures"]
            assert result["failed"] == 0 and result["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in spec[section]}
            printed = {
                key: entry["unit"]
                for key, entry in result["metrics"].items()
            }
            assert printed == declared
        for entry in results[name, 0]["metrics"].values():
            assert entry["value"] > 0  # end-to-end metrics are never 0


def test_schedule_is_a_pure_function_of_workload_and_seed(results):
    for name in e2e_workloads.WORKLOADS:
        assert (results[name, 1]["schedule_digest"]
                == results[name, 2]["schedule_digest"])
        other = e2e_workloads.WORKLOADS[name](
            SEED + 1, SECONDS, e2e_spans.Tracer()
        )
        assert other.schedule_digest != results[name, 1]["schedule_digest"]


def test_exact_counts_repeat(results):
    for name in e2e_workloads.WORKLOADS:
        first = results[name, 1]["metrics"]
        second = results[name, 2]["metrics"]
        for metric in EXACT:
            assert first[metric]["value"] == second[metric]["value"], (
                name, metric)
    for name in ("album-read", "store-durable"):
        assert results[name, 1]["metrics"][
            "platform.semanticize_calls"]["value"] == 0


def test_every_commit_fsyncs_exactly_once(results):
    for run_index in (1, 2):
        metrics = results["store-durable", run_index]["metrics"]
        assert metrics["store.fsyncs_per_commit"]["value"] == 1.0


def test_speed_is_the_mean_of_the_adjacent_samples():
    meter = e2e_speed.SpeedMeter()
    reference = e2e_speed.REFERENCE_S
    meter.samples = [reference, 3 * reference, 5 * reference]
    assert meter.speed(0) == pytest.approx(2.0)
    assert meter.speed(1) == pytest.approx(4.0)
    assert meter.speed(2) == pytest.approx(5.0)  # nothing after the last


def test_span_tree_is_sound(results):
    for name in e2e_workloads.WORKLOADS:
        spans = results[name, "spans"]
        ids = {span["id"] for span in spans}
        assert spans and len(ids) == len(spans)
        for span in spans:
            assert span["parent"] is None or span["parent"] in ids
            assert span["end"] >= span["start"]
            assert span["self"] >= -1e-6, span


def test_a_wrong_album_fails_the_run(monkeypatch, capsys):
    """Comparing against the wrong album must fail the command."""
    real = e2e_workloads.AlbumRead._run

    def wrong_oracle(self, op, optimize=True):
        if not optimize and op[0] == "album_geo":
            op = ("album_geo", ("Juventus Stadium", ""))
        return real(self, op, optimize)

    monkeypatch.setattr(e2e_workloads.AlbumRead, "_run", wrong_oracle)
    code = run.main([
        "--workload", "album-read", "--seed", str(SEED),
        "--seconds", str(SECONDS), "--trace", "0",
    ])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False and last["failed"] >= 1


def test_changed_inputs_refuse_to_run():
    pins = run.load_pins()
    pins["album-read"] = dict(pins["album-read"], captures="0" * 16)
    with pytest.raises(run.PinMismatch):
        run.build("album-read", pins["seed"], pins["seconds"],
                  e2e_spans.Tracer(), pins)


def test_compare_flags_a_regression(tmp_path, spec, results, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    record = results["album-read", 0]
    slower = json.loads(json.dumps(record))
    slower["metrics"]["primary_p50_ms"]["value"] *= 2.0
    a.write_text(json.dumps(record) + "\n", encoding="utf-8")
    b.write_text(json.dumps(slower) + "\n", encoding="utf-8")
    assert run.compare(str(a), str(a)) == 0
    assert run.compare(str(a), str(b)) == 1
    assert "worse" in capsys.readouterr().out
