"""SLO spec parsing and load-report evaluation."""

import json

import pytest

from repro.obs.slo import (
    Objective,
    SLOError,
    SLOSpec,
    default_slo,
    evaluate_slo,
)


def _latency_objective(threshold=0.5, quantile=0.95, op="search"):
    return Objective(
        name="lat", kind="latency", op=op,
        threshold=threshold, quantile=quantile,
    )


def _row(p50, p95, p99, top, count):
    """A ``per_op``/``freshness`` row as the load report writes it."""
    return {
        "count": float(count), "mean_ms": p50, "p50_ms": p50,
        "p95_ms": p95, "p99_ms": p99, "max_ms": top,
    }


def _report(per_op=None, freshness=None, completed=50, errors=0,
            wall_seconds=2.0):
    """A minimal ``LoadReport.to_dict()``."""
    return {
        "wall_seconds": wall_seconds,
        "completed": completed,
        "errors": errors,
        "throughput_ops_per_s": completed / wall_seconds,
        "per_op": per_op if per_op is not None else {
            "search": _row(1.0, 10.0, 20.0, 30.0, 20),
        },
        "freshness": freshness if freshness is not None else {},
    }


class TestSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SLOError):
            Objective(name="x", kind="nope", threshold=1.0)

    def test_quantile_bounds_enforced(self):
        with pytest.raises(SLOError):
            Objective(
                name="x", kind="latency", op="search",
                threshold=1.0, quantile=1.5,
            )

    @pytest.mark.parametrize("quantile", [0.0, 0.9, 0.999])
    def test_quantile_the_report_lacks_is_refused(self, quantile):
        with pytest.raises(SLOError, match="not in the load report"):
            _latency_objective(quantile=quantile)

    @pytest.mark.parametrize("quantile", [0.5, 0.95, 0.99, 1.0])
    def test_report_quantiles_are_accepted(self, quantile):
        assert _latency_objective(quantile=quantile).quantile == quantile

    def test_latency_needs_an_op_and_only_latency_names_one(self):
        with pytest.raises(SLOError, match="names an op"):
            Objective(name="x", kind="latency", threshold=1.0)
        with pytest.raises(SLOError, match="names an op"):
            Objective(
                name="x", kind="freshness", op="upload", threshold=1.0
            )

    def test_negative_threshold_rejected(self):
        with pytest.raises(SLOError):
            _latency_objective(threshold=-1.0)

    def test_empty_spec_rejected(self):
        with pytest.raises(SLOError):
            SLOSpec(name="empty", objectives=())

    def test_duplicate_objective_names_rejected(self):
        with pytest.raises(SLOError):
            SLOSpec(
                name="dup",
                objectives=(_latency_objective(), _latency_objective()),
            )

    def test_round_trips_through_json(self, tmp_path):
        spec = default_slo()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        loaded = SLOSpec.load(path)
        assert loaded == spec

    def test_load_rejects_malformed_files(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SLOError):
            SLOSpec.load(path)
        with pytest.raises(SLOError):
            SLOSpec.load(tmp_path / "absent.json")
        for text in (
            '["not", "an", "object"]',
            '{"objectives": ["not an object"]}',
            '{"objectives": [{"name": "x", "kind": "throughput", '
            '"threshold": "fast"}]}',
            '{"objectives": [{"name": "x", "kind": "latency", '
            '"op": "search", "threshold": 1, "quantile": null}]}',
        ):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(SLOError):
                SLOSpec.load(path)

    def test_load_refuses_a_spec_quantile_the_report_lacks(self, tmp_path):
        data = default_slo().to_dict()
        data["objectives"][0]["quantile"] = 0.9
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(SLOError, match="quantile 0.9"):
            SLOSpec.load(path)

    def test_load_refuses_unknown_fields(self, tmp_path):
        # the snapshot-era fields are gone; a spec naming them fails
        data = {"objectives": [{
            "name": "x", "kind": "latency", "threshold": 1.0,
            "metric": "repro_op_seconds", "labels": {"op": "search"},
        }]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(SLOError, match="labels, metric"):
            SLOSpec.load(path)

    def test_objective_has_six_fields(self):
        assert list(Objective.__dataclass_fields__) == [
            "name", "kind", "threshold", "op", "quantile", "description",
        ]

    def test_ops_the_spec_needs(self):
        assert default_slo().ops() == {
            "search", "browse", "album", "mashup", "store_write",
            "upload",
        }
        freshness = Objective(
            name="f", kind="freshness", threshold=1.0
        )
        assert SLOSpec("s", (freshness,)).ops() == {"upload"}


class TestEvaluate:
    def test_latency_reads_the_report_quantile(self):
        report = _report()
        for quantile, expected_ms in (
            (0.5, 1.0), (0.95, 10.0), (0.99, 20.0), (1.0, 30.0),
        ):
            spec = SLOSpec("s", (_latency_objective(quantile=quantile),))
            (result,) = evaluate_slo(spec, report).results
            assert result.observed == pytest.approx(expected_ms / 1000.0)
            assert result.samples == 20

    def test_latency_pass_and_fail(self):
        report = _report()
        spec = SLOSpec("s", (_latency_objective(threshold=0.5),))
        verdict = evaluate_slo(spec, report)
        assert verdict.passed
        (result,) = verdict.results
        assert result.ok and result.burn < 1.0 and result.samples == 20

        tight = SLOSpec("s", (_latency_objective(threshold=0.001),))
        verdict = evaluate_slo(tight, report)
        assert not verdict.passed
        assert verdict.breaches[0].burn > 1.0

    def test_op_selects_its_row(self):
        report = _report(per_op={
            "fast": _row(1.0, 1.0, 1.0, 1.0, 3),
            "slow": _row(9000.0, 9000.0, 9000.0, 9000.0, 3),
        })
        fast = SLOSpec("s", (_latency_objective(op="fast"),))
        assert evaluate_slo(fast, report).passed
        slow = SLOSpec("s", (_latency_objective(op="slow"),))
        assert not evaluate_slo(slow, report).passed

    def test_missing_data_fails_with_detail(self):
        # a report with no sample for an objective is not judged at all:
        # neither a vacuous pass nor a breach
        spec = SLOSpec("s", (_latency_objective(op="mashup"),))
        with pytest.raises(SLOError, match="no 'mashup' op"):
            evaluate_slo(spec, _report())
        freshness = Objective(name="f", kind="freshness", threshold=1.0)
        with pytest.raises(SLOError, match="no synced upload"):
            evaluate_slo(SLOSpec("s", (freshness,)), _report())

    def test_freshness_reads_the_freshness_row(self):
        objective = Objective(
            name="fresh", kind="freshness", quantile=0.99, threshold=0.5,
        )
        spec = SLOSpec("s", (objective,))
        report = _report(freshness=_row(40.0, 80.0, 120.0, 130.0, 4))
        (result,) = evaluate_slo(spec, report).results
        assert result.ok
        assert result.observed == pytest.approx(0.12)
        assert result.samples == 4

    def test_error_rate(self):
        objective = Objective(
            name="err", kind="error_rate", threshold=0.05,
        )
        report = _report(completed=100, errors=2)
        (result,) = evaluate_slo(SLOSpec("s", (objective,)), report).results
        assert result.ok
        assert result.observed == pytest.approx(0.02)
        assert result.samples == 100
        tight = Objective(name="err", kind="error_rate", threshold=0.01)
        assert not evaluate_slo(SLOSpec("s", (tight,)), report).passed
        # a zero budget is breached by any error, met by none
        zero = SLOSpec("s", (
            Objective(name="err", kind="error_rate", threshold=0.0),
        ))
        assert not evaluate_slo(zero, report).passed
        assert evaluate_slo(zero, _report(errors=0)).passed

    def test_throughput_reads_the_report(self):
        objective = Objective(
            name="tput", kind="throughput", threshold=10.0,
        )
        spec = SLOSpec("s", (objective,))
        verdict = evaluate_slo(spec, _report(completed=50, wall_seconds=2.0))
        (result,) = verdict.results
        assert result.ok and result.observed == pytest.approx(25.0)
        assert result.burn == pytest.approx(0.4)
        assert verdict.wall_seconds == 2.0
        slow = _report(completed=50, wall_seconds=10.0)
        assert not evaluate_slo(spec, slow).passed

    def test_report_serializes_and_renders(self):
        spec = SLOSpec("s", (_latency_objective(threshold=0.001),))
        verdict = evaluate_slo(spec, _report())
        data = json.loads(verdict.to_json())
        assert data["passed"] is False
        assert data["objectives"][0]["name"] == "lat"
        assert data["objectives"][0]["op"] == "search"
        text = verdict.render()
        assert "FAIL" in text and "BREACH" in text
        assert "10.0 ms" in text

    def test_default_spec_is_wellformed(self):
        spec = default_slo()
        kinds = {objective.kind for objective in spec.objectives}
        assert kinds == {
            "latency", "freshness", "error_rate", "throughput"
        }
