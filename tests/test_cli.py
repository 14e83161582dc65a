"""Command line behavior, report determinism, and verification round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import solvform
from solvform import build_report, dumps_canonical, fixture_path, load_spec, verify_report
from solvform import cli, minimal_model, monodromy, report
from solvform.cli import main

SRC = str(Path(solvform.__file__).resolve().parents[1])


def _run_cli(*argv):
    """The CLI in a fresh interpreter, so a leaked traceback shows on stderr."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "solvform", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )


def _write_spec(tmp_path, name="input.json", text=None):
    path = tmp_path / name
    path.write_text(text if text is not None else fixture_path("s6").read_text())
    return path


def test_analyze_text_to_stdout(tmp_path, capsys):
    spec_path = _write_spec(tmp_path)
    assert main(["analyze", str(spec_path), "--max-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "not 1-formal" in out
    assert "b1 = 4, b2 = 7, b3 = 8" in out
    assert "symplectic witness" in out


def test_each_stage_subcommand_runs(tmp_path, capsys):
    spec_path = _write_spec(tmp_path, text=fixture_path("torus3").read_text())
    for stage in ("unipotent", "cohomology", "model", "formality"):
        assert main([stage, str(spec_path)]) == 0
        capsys.readouterr()


def test_analyze_torus4(tmp_path, capsys):
    spec_path = _write_spec(tmp_path, text=fixture_path("torus4").read_text())
    assert main(["analyze", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "formal through degree 3" in out
    assert "symplectic witness" in out


def test_formality_stage_on_s8(tmp_path, capsys):
    spec_path = _write_spec(tmp_path, text=fixture_path("s8").read_text())
    assert main(["formality", str(spec_path), "--max-degree", "1"]) == 0
    out = capsys.readouterr().out
    assert "not 1-formal" in out


def test_json_reports_are_byte_identical(tmp_path):
    spec_path = _write_spec(tmp_path)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["analyze", str(spec_path), "--max-degree", "2", "--format", "json", "--report", str(r1)]) == 0
    assert main(["analyze", str(spec_path), "--max-degree", "2", "--format", "json", "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_round_trip(tmp_path, capsys):
    spec_path = _write_spec(tmp_path)
    report = tmp_path / "report.json"
    assert main(["analyze", str(spec_path), "--max-degree", "2", "--format", "json", "--report", str(report)]) == 0
    assert main(["verify", str(report), str(spec_path)]) == 0
    assert "verified" in capsys.readouterr().out


def test_verify_flags_edited_betti(tmp_path, capsys):
    spec_path = _write_spec(tmp_path)
    report_path = tmp_path / "report.json"
    main(["analyze", str(spec_path), "--max-degree", "2", "--format", "json", "--report", str(report_path)])
    doc = json.loads(report_path.read_text())
    doc["cohomology"]["betti"]["2"] = 99
    report_path.write_text(json.dumps(doc))
    assert main(["verify", str(report_path), str(spec_path)]) == 1
    err = capsys.readouterr().err
    assert "betti" in err and "99" in err


def test_verify_flags_tampered_witness(tmp_path, capsys):
    spec_path = _write_spec(tmp_path)
    report_path = tmp_path / "report.json"
    main(["analyze", str(spec_path), "--max-degree", "2", "--format", "json", "--report", str(report_path)])
    doc = json.loads(report_path.read_text())
    doc["symplectic"]["witness"]["two_form"] = "a34 + a45"
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(report_path), str(spec_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("mismatch: symplectic/witness/two_form: ")


@pytest.mark.parametrize(
    "edit, line",
    [
        (lambda doc: doc.update(extra=[[1]]), "mismatch: unknown top-level key 'extra'"),
        (
            lambda doc: doc["generator"].update(name="other"),
            "mismatch: generator/name: report has 'other', recomputation gives 'solvform'",
        ),
    ],
    ids=["unknown key", "generator name"],
)
def test_verify_checks_the_whole_top_level(tmp_path, capsys, edit, line):
    spec_path = _write_spec(tmp_path, text='{"n": 3, "blocks": [{"kind": "real", "size": 3}]}')
    report_path = tmp_path / "report.json"
    main(["analyze", str(spec_path), "--max-degree", "2", "--format", "json", "--report", str(report_path)])
    doc = json.loads(report_path.read_text())
    edit(doc)
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(report_path), str(spec_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [line]


def test_verify_partial_report_with_lower_bound(tmp_path, capsys):
    # a report from an earlier stage and lower degree still verifies
    spec_path = _write_spec(tmp_path)
    report_path = tmp_path / "report.json"
    assert main(["cohomology", str(spec_path), "--max-degree", "1", "--format", "json", "--report", str(report_path)]) == 0
    assert main(["verify", str(report_path), str(spec_path)]) == 0


def test_schema_violation_exit_code(tmp_path, capsys):
    bad = _write_spec(tmp_path, "bad.json", '{"n": 5, "blocks": [{"kind": "real", "size": 1}]}')
    assert main(["analyze", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_hypothesis_violation_exit_code(tmp_path, capsys):
    doc = '{"n": 2, "blocks": [{"kind": "complex", "size": 1, "im_resonant": "1/2"}]}'
    bad = _write_spec(tmp_path, "frac.json", doc)
    assert main(["cohomology", str(bad)]) == 1
    assert "modification hypothesis" in capsys.readouterr().err


def test_unreadable_input_exit_code(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.json")]) == 1
    assert "cannot read input" in capsys.readouterr().err


def test_unwritable_report_path_exit_code(tmp_path, capsys):
    spec_path = _write_spec(tmp_path, text=fixture_path("torus3").read_text())
    report_path = tmp_path / "missing" / "r.json"
    assert main(["analyze", str(spec_path), "--report", str(report_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report: ") and err.count("\n") == 1


def test_malformed_report_diagnostic(tmp_path, capsys):
    spec_path = _write_spec(tmp_path)
    report_path = tmp_path / "broken.json"
    report_path.write_text("{not json")
    assert main(["verify", str(report_path), str(spec_path)]) == 1
    assert "malformed report" in capsys.readouterr().err


def test_report_echo_round_trip():
    spec = load_spec(fixture_path("torus4"))
    report = build_report(spec, 2)
    ok, mismatches = verify_report(report, spec)
    assert ok, mismatches
    # canonical dumps are stable under a JSON round trip
    assert dumps_canonical(json.loads(dumps_canonical(report))) == dumps_canonical(report)


def test_verify_non_object_report_is_input_error(tmp_path):
    spec_path = _write_spec(tmp_path)
    report_path = tmp_path / "list.json"
    report_path.write_text("[1, 2]")
    proc = _run_cli("verify", str(report_path), str(spec_path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: malformed report: the top level must be a JSON object"]


def test_verify_unparsable_witness_is_input_error(tmp_path):
    spec_path = _write_spec(tmp_path)
    report_path = tmp_path / "report.json"
    assert main(["analyze", str(spec_path), "--max-degree", "2", "--format", "json", "--report", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    doc["symplectic"]["witness"]["two_form"] = "a1x"
    report_path.write_text(json.dumps(doc))
    proc = _run_cli("verify", str(report_path), str(spec_path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    # the witness is compared as canonical bytes with a fresh one, never parsed
    assert proc.stderr.splitlines() == [
        "mismatch: symplectic/witness/two_form: report has 'a1x', recomputation gives 'a23 + a45'"
    ]


def test_unexpected_error_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "build_report", broken)
    assert main(["analyze", str(_write_spec(tmp_path))]) == 2
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_s8_model_stage_at_degree_5(tmp_path):
    # a zero partial product in the realization map once crashed this run
    report_path = tmp_path / "report.json"
    argv = ["model", str(fixture_path("s8")), "--max-degree", "5", "--format", "json", "--report", str(report_path)]
    assert main(argv) == 0
    quasi = json.loads(report_path.read_text())["model"]["quasi_isomorphism"]
    assert sorted(quasi) == ["1", "2", "3", "4", "5"] and all(quasi.values())


def test_oversized_fiber_is_refused_before_enumeration(tmp_path, capsys, monkeypatch):
    # nil16's largest slice (degree 8) has C(16, 8) = 12,870 resonant monomials;
    # the count comes from the weight-count vectors, so no monomial is enumerated
    def enumerating(*args):
        raise AssertionError("a slice was enumerated")

    monkeypatch.setattr(monodromy, "product", enumerating)
    spec_path = _write_spec(tmp_path, text='{"n": 16, "blocks": [{"kind": "real", "size": 16}]}')
    assert main(["analyze", str(spec_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: fiber too large: the degree-8 unipotent slice has 12870 resonant monomials, "
        "above the limit of 10000\n"
    )


def test_many_slot_weights_are_refused_before_counting(tmp_path, capsys, monkeypatch):
    # 18 size-1 blocks of distinct real parts give 2**18 weight-count vectors,
    # all but the zero vector non-resonant; the product is read off the group sizes
    def enumerating(*args):
        raise AssertionError("the count vectors were enumerated")

    monkeypatch.setattr(monodromy, "_add_weights", enumerating)
    blocks = [{"kind": "real", "size": 1, "re": str(i)} for i in range(1, 19)]
    spec_path = _write_spec(tmp_path, text=json.dumps({"n": 18, "blocks": blocks}))
    assert main(["unipotent", str(spec_path), "--max-degree", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: fiber too large: its slot weights give 262144 weight-count vectors, "
        "above the limit of 65536\n"
    )


def test_huge_block_is_refused_before_its_slots_are_built(tmp_path, capsys, monkeypatch):
    # one real block of size 10**8: the group sizes come from the blocks, so no
    # slot record is built before its 10**8 + 1 count vectors are refused
    def building(*args):
        raise AssertionError("the slot records were built")

    monkeypatch.setattr(monodromy, "generator_weights", building)
    text = json.dumps({"n": 10**8, "blocks": [{"kind": "real", "size": 10**8}]})
    spec_path = _write_spec(tmp_path, text=text)
    assert main(["unipotent", str(spec_path), "--max-degree", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: fiber too large: its slot weights give 100000001 weight-count vectors, "
        "above the limit of 65536\n"
    )


def test_lowered_slice_limit_refuses_s6(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(monodromy, "MAX_SLICE_MONOMIALS", 3)
    assert main(["analyze", str(_write_spec(tmp_path)), "--max-degree", "3"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "above the limit of 3" in err


def test_model_past_its_monomial_limit_is_refused(tmp_path, capsys):
    # once its closed degree-9 generators are in, s8 has 43,022 degree-10
    # monomials; the build stops there instead of running for minutes
    spec_path = _write_spec(tmp_path, text=fixture_path("s8").read_text())
    assert main(["model", str(spec_path), "--max-degree", "12"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: model too large: degree 10 has 43022 monomials, above the limit of 20000\n"


def test_lowered_model_limit_refuses_s6(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(minimal_model, "MAX_MODEL_MONOMIALS", 3)
    assert main(["analyze", str(_write_spec(tmp_path)), "--max-degree", "3"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "model too large" in err and "above the limit of 3" in err


def test_max_degree_past_its_limit_is_refused_before_any_stage(tmp_path, capsys, monkeypatch):
    # K = 10**9 would count model monomials for hours; the refusal comes first
    spec_path = str(_write_spec(tmp_path))
    assert main(["unipotent", spec_path, "--max-degree", str(report.MAX_DEGREE),
                 "--format", "json", "--report", str(tmp_path / "r.json")]) == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    doc["max_degree"] = 10**9
    (tmp_path / "r.json").write_text(json.dumps(doc))
    capsys.readouterr()

    def no_stage(spec):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(report, "check_fiber_size", no_stage)
    assert main(["analyze", spec_path, "--max-degree", str(10**9)]) == 1
    refusal = f"error: --max-degree {10**9} is above the limit of {report.MAX_DEGREE}\n"
    assert capsys.readouterr() == ("", refusal)
    assert main(["verify", str(tmp_path / "r.json"), spec_path]) == 1
    assert capsys.readouterr() == ("", "mismatch: report lacks a valid max_degree\n")


DEEP = b"[" * 100000 + b"]" * 100000
UNREADABLE_DOCUMENTS = {
    "non-UTF-8 input": ("analyze", b'\xff{"n": 3}', "error: input is not UTF-8 text: "),
    "deeply nested input": ("analyze", DEEP, "error: input is not valid JSON: "),
    "non-UTF-8 report": ("verify", b'\xff{"format_version": 1}', "error: malformed report: "),
    "deeply nested report": ("verify", DEEP, "error: malformed report: "),
}


@pytest.mark.parametrize(
    "command, data, prefix", UNREADABLE_DOCUMENTS.values(), ids=UNREADABLE_DOCUMENTS.keys()
)
def test_unreadable_documents_are_input_errors(tmp_path, capsys, command, data, prefix):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    argv = [command, str(bad)] + ([str(_write_spec(tmp_path))] if command == "verify" else [])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(prefix)


def test_deeply_nested_input_in_a_fresh_interpreter_is_one_line(tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_bytes(DEEP)
    proc = _run_cli("analyze", str(bad))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: input is not valid JSON: maximum recursion depth exceeded "
        "while decoding a JSON array from a unicode string\n"
    )


USAGE_ERRORS = {
    "bad max-degree": ["analyze", "{spec}", "--max-degree", "abc"],
    "bad max-degree with =": ["analyze", "{spec}", "--max-degree=abc"],
    "missing max-degree value": ["analyze", "{spec}", "--max-degree"],
    "unknown command": ["frob"],
    "no command": [],
    "unknown option": ["analyze", "{spec}", "--bogus", "1"],
    "unknown short option": ["analyze", "{spec}", "-v"],
    "option given to verify": ["verify", "{spec}", "{spec}", "--format", "json"],
    "bad format": ["cohomology", "{spec}", "--format", "xml"],
    "missing input": ["analyze"],
    "extra positional": ["analyze", "{spec}", "{spec}"],
    "verify with one path": ["verify", "{spec}"],
    "verify with three paths": ["verify", "{spec}", "{spec}", "{spec}"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_errors_are_input_errors(tmp_path, capsys, argv):
    spec_path = str(_write_spec(tmp_path, text=fixture_path("torus3").read_text()))
    assert main([arg.format(spec=spec_path) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "usage:" not in err


def test_usage_error_in_a_fresh_interpreter_is_one_line():
    proc = _run_cli("analyze", "x.json", "--max-degree", "abc")
    assert proc.returncode == 1
    assert proc.stderr == "error: --max-degree must be an integer, got 'abc'\n"


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("before", [[], ["analyze"], ["verify", "r.json"]])
def test_help_prints_the_readme_usage(capsys, flag, before):
    assert main([*before, flag]) == 0
    out, err = capsys.readouterr()
    readme = (Path(SRC).parent / "README.md").read_text()
    lines = out.splitlines()
    assert len(lines) == 2 and err == ""
    assert all(f"\n{line}\n" in readme for line in lines)


def test_options_accept_an_equals_sign(tmp_path, capsys):
    spec_path = _write_spec(tmp_path, text=fixture_path("torus3").read_text())
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["cohomology", str(spec_path), "--max-degree", "2", "--format", "json", "--report", str(r1)]) == 0
    assert main(["cohomology", f"--report={r2}", "--format=json", "--max-degree=2", str(spec_path)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    assert json.loads(r1.read_text())["max_degree"] == 2
