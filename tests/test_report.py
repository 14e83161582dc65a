"""Report sections and stage boundaries on hypothesis-violating inputs."""

import json

import pytest
from test_golden_reports import NIL7, NIL322, _digest_specs

from solvform import (
    HypothesisError,
    build_report,
    dumps_canonical,
    emit_spec,
    fixture_path,
    load_spec,
    parse_spec,
    verify_report,
)
from solvform.report import Analysis
from solvform.spectral import spec_document

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


TAMPERS = [
    (("cohomology", "betti", "0"), True),
    (("unipotent", "dims", "0"), True),
    (("formality", "max_checked_degree"), True),
    (("assumptions", "finite_type_bound"), True),
    (("model", "generator_counts", "1", "closed"), 2.0),
    (("input", "blocks", 0, "re"), 0),
]


@pytest.mark.parametrize("path, value", TAMPERS)
def test_verify_compares_canonical_bytes(torus3, path, value):
    # True == 1 == 1.0 and "0" parses like 0, but the canonical bytes differ
    report = build_report(torus3, 1)
    edited, original = _tampered(report, path, value)
    ok, mismatches = verify_report(edited, torus3)
    assert not ok
    leaf = "/".join(str(key) for key in path)
    assert mismatches == [f"{leaf}: report has {value!r}, recomputation gives {original!r}"]


def _tampered(report, path, value):
    """A copy of ``report`` with ``value`` at ``path``, and the value it replaced."""
    edited = json.loads(json.dumps(report))
    target = edited
    for key in path[:-1]:
        target = target[key]
    original = target[path[-1]]
    target[path[-1]] = value
    return edited, original


@pytest.mark.parametrize(
    "doc, max_degree",
    [(name, k) for name in ("heisenberg3", "s6", "s8", "torus3", "torus4") for k in (1, 2, 3, 4)]
    + [pytest.param(NIL7, 3, id="nil7-3"), pytest.param(NIL322, 3, id="nil322-3")],
)
def test_the_byte_comparison_agrees_with_the_section_walk(doc, max_degree):
    # the text of a report, canonical or not, verifies exactly as the report's
    # sections compared one by one do; only the canonical dump of the recomputation
    # skips the walk
    spec = load_spec(fixture_path(doc)) if isinstance(doc, str) else parse_spec(json.dumps(doc))
    report = build_report(spec, max_degree)
    for text in (dumps_canonical(report), json.dumps(report, indent=2)):
        assert verify_report(json.loads(text), spec, text) == verify_report(report, spec) == (True, [])
    for path, value in TAMPERS:
        edited, _ = _tampered(report, path, value)
        walked = verify_report(edited, spec)
        assert not walked[0]
        assert verify_report(edited, spec, dumps_canonical(edited)) == walked


def test_a_long_mismatch_side_is_cut(torus3):
    # a side whose repr passes 400 characters keeps its first 320 and its length
    report = build_report(torus3, 1)
    for size, shown in [(398, "'" + "x" * 398 + "'"), (399, "'" + "x" * 319 + "... (401 characters)")]:
        edited, original = _tampered(report, ("assumptions", "lattice_existence"), "x" * size)
        assert verify_report(edited, torus3) == (
            False, [f"assumptions/lattice_existence: report has {shown}, recomputation gives {original!r}"]
        )


def test_the_echo_is_the_emitted_document():
    for spec in _digest_specs():
        assert spec_document(spec) == json.loads(emit_spec(spec))
