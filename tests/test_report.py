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


@pytest.mark.parametrize("version", [True, 1.0, "1", None, 2])
def test_verify_rejects_non_integer_format_version(torus4, version):
    report = build_report(torus4, 1, stages=("unipotent",))
    report["format_version"] = version
    assert verify_report(report, torus4) == (
        False,
        [f"unsupported format_version {version!r}"],
    )


def test_verify_rederives_assumptions(torus3):
    report = build_report(torus3, 1)
    assert verify_report(report, torus3) == (True, [])
    edited = json.loads(json.dumps(report))
    edited["assumptions"]["unimodular_trace_zero"] = False
    edited["assumptions"]["lattice_existence"] = "proved"
    ok, mismatches = verify_report(edited, torus3)
    assert not ok
    assert len(mismatches) == 1 and mismatches[0].startswith("assumptions/lattice_existence:")
    # a report stripped of every stage and of its assumptions claims nothing checkable
    bare = {key: report[key] for key in ("format_version", "generator", "input", "max_degree")}
    ok, mismatches = verify_report(bare, torus3)
    assert not ok
    assert mismatches == [
        f"assumptions: report has None, recomputation gives {report['assumptions']!r}"
    ]


@pytest.mark.parametrize(
    "path, value",
    [
        (("cohomology", "betti", "0"), True),
        (("unipotent", "dims", "0"), True),
        (("formality", "max_checked_degree"), True),
        (("assumptions", "finite_type_bound"), True),
        (("model", "generator_counts", "1", "closed"), 2.0),
        (("input", "blocks", 0, "re"), 0),
    ],
)
def test_verify_compares_canonical_bytes(torus3, path, value):
    # True == 1 == 1.0 and "0" parses like 0, but the canonical bytes differ
    report = build_report(torus3, 1)
    edited = json.loads(json.dumps(report))
    target = edited
    for key in path[:-1]:
        target = target[key]
    original = target[path[-1]]
    target[path[-1]] = value
    ok, mismatches = verify_report(edited, torus3)
    assert not ok
    leaf = "/".join(str(key) for key in path)
    assert mismatches == [f"{leaf}: report has {value!r}, recomputation gives {original!r}"]
