"""Report sections and stage boundaries on hypothesis-violating inputs."""

import json

import pytest

from solvform import HypothesisError, build_report, parse_spec, verify_report
from solvform.report import Analysis

FRACTIONAL = '{"n": 2, "blocks": [{"kind": "complex", "size": 1, "im_resonant": "1/2"}]}'


def test_unipotent_stage_works_without_modification_hypothesis():
    spec = parse_spec(FRACTIONAL)
    report = build_report(spec, 2, stages=("unipotent",))
    assert report["unipotent"]["dims"] == {"0": 1, "1": 0, "2": 1}
    assert report["assumptions"]["modification_hypothesis_holds"] is False
    ok, mismatches = verify_report(report, spec)
    assert ok, mismatches


def test_cohomology_stage_raises_on_fractional_resonance():
    spec = parse_spec(FRACTIONAL)
    with pytest.raises(HypothesisError):
        build_report(spec, 2, stages=("unipotent", "cohomology"))


def test_model_stage_works_without_modification_hypothesis():
    spec = parse_spec(FRACTIONAL)
    report = build_report(spec, 2, stages=("unipotent", "model"))
    assert report["model"]["quasi_isomorphism"] == {"1": True, "2": True}


def test_assumptions_present_in_every_report(torus4):
    report = build_report(torus4, 2, stages=("unipotent",))
    assumptions = report["assumptions"]
    assert assumptions["unimodular_trace_zero"] is True
    assert assumptions["finite_type_bound"] == 2
    assert "asserted" in assumptions["lattice_existence"]


def test_report_sections_marshal_to_json(s8):
    report = build_report(s8, 2)
    text = json.dumps(report, sort_keys=True)
    assert "formality" in json.loads(text)


def test_analysis_reuses_model(s6):
    analysis = Analysis(s6, 2)
    assert analysis.model is analysis.model
    assert analysis.twisted is analysis.twisted


def test_verify_rejects_boolean_max_degree(torus4):
    report = build_report(torus4, 1, stages=("unipotent",))
    report["max_degree"] = True
    assert verify_report(report, torus4) == (False, ["report lacks a valid max_degree"])
