"""Command line behavior, report determinism, and verification round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import solvform
from solvform import build_report, dumps_canonical, fixture_path, load_spec, verify_report
from solvform import cli
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
    assert main(["verify", str(report_path), str(spec_path)]) == 1


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
    assert len(proc.stderr.splitlines()) == 1 and "cannot parse multivector 'a1x'" in proc.stderr


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
