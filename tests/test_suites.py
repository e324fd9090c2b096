"""Named check suites: determinism, schema conformance, outcomes."""

import json

import jsonschema
import pytest

from nearnormal import thompson
from nearnormal.suites import SUITES, UnknownSuiteError, report_failures, run_suite


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes(name):
    report = run_suite(name, seed=0)
    assert report["suite"] == name
    assert report["seed"] == 0
    assert report["timing"] is None
    assert report["checks"]
    assert report_failures(report) == []


def test_report_shape_and_ordering():
    report = run_suite("all", seed=0)
    ids = [c["id"] for c in report["checks"]]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    for check in report["checks"]:
        assert set(check) == {"id", "law", "inputs", "outcome", "witness"}
        assert check["outcome"] in ("pass", "fail", "unknown")
        if check["outcome"] == "fail":
            assert check["witness"] is not None


def test_schema_validation(report_schema):
    jsonschema.Draft7Validator.check_schema(report_schema)
    report = run_suite("words", seed=0)
    jsonschema.validate(report, report_schema)
    timed = run_suite("words", seed=0, timing=True)
    assert timed["timing"] is not None and timed["timing"]["seconds"] >= 0
    jsonschema.validate(timed, report_schema)


def test_schema_rejects_malformed_reports(report_schema):
    bad = run_suite("words", seed=0)
    bad["checks"][0]["outcome"] = "maybe"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, report_schema)
    failing_without_witness = run_suite("words", seed=0)
    failing_without_witness["checks"][0]["outcome"] = "fail"
    failing_without_witness["checks"][0]["witness"] = None
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(failing_without_witness, report_schema)


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("nope")
    assert issubclass(UnknownSuiteError, ValueError)


def test_byte_determinism():
    first = json.dumps(run_suite("all", seed=7), sort_keys=True)
    second = json.dumps(run_suite("all", seed=7), sort_keys=True)
    assert first == second


def test_all_runs_every_suite():
    report = run_suite("all", seed=0)
    prefixes = {c["id"].split("/")[0] for c in report["checks"]}
    assert prefixes == set(SUITES)


def test_report_failures_picks_failing_records():
    report = {"suite": "x", "seed": 0, "timing": None, "checks": [
        {"id": "x/a", "law": "l", "inputs": {}, "outcome": "pass", "witness": None},
        {"id": "x/b", "law": "l", "inputs": {}, "outcome": "fail", "witness": "w"},
        {"id": "x/c", "law": "l", "inputs": {}, "outcome": "unknown", "witness": None},
    ]}
    assert [c["id"] for c in report_failures(report)] == ["x/b"]


def _thompson_outcomes(monkeypatch, name, fake):
    monkeypatch.setattr(thompson, name, fake)
    return {c["id"]: c for c in run_suite("thompson")["checks"]}


def test_thompson_suite_fails_the_grid_on_a_failing_identity(monkeypatch):
    real = thompson.verify_conjugation_identity
    checks = _thompson_outcomes(monkeypatch, "verify_conjugation_identity",
                                lambda m, n: (m, n) != (0, 3) and real(m, n))
    assert checks["thompson/conjugation-grid"]["outcome"] == "fail"
    assert [c for c in checks.values() if c["outcome"] != "pass"] == [
        checks["thompson/conjugation-grid"]]


def test_thompson_suite_keeps_the_intersection_bound_text(monkeypatch):
    # A_m lies in A^(x0^2) from m = 2 on, so an m bound of 1 certifies none
    real = thompson.am_in_conjugate_intersection
    checks = _thompson_outcomes(monkeypatch, "am_in_conjugate_intersection",
                                lambda gs, m_bound: real(gs, 1))
    record = checks["thompson/conjugate-intersection"]
    assert record["outcome"] == "fail"
    assert record["witness"] == "no m <= 1"
