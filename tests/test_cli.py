"""Command line behavior, report determinism, and verification round trips."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import solvform
from solvform import build_report, dumps_canonical, fixture_path, load_spec, verify_report
from solvform import cli, minimal_model, monodromy, report, scalars, spectral
from solvform.cli import main
from test_golden_reports import B2B2

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


def test_verify_of_a_canonical_report_parses_and_dumps_once(tmp_path, capsys, monkeypatch):
    # the input is parsed by load_spec alone, and the recomputation is dumped
    # once and compared with the report's text as it was read
    spec_path = _write_spec(tmp_path)
    report_path = tmp_path / "report.json"
    assert main(["analyze", str(spec_path), "--max-degree", "2", "--format", "json", "--report", str(report_path)]) == 0
    calls = []

    def counted(name, fn):
        def wrapper(arg):
            calls.append(name if name == "parse" or "format_version" not in arg else "dump report")
            return fn(arg)

        return wrapper

    monkeypatch.setattr(spectral, "parse_spec", counted("parse", spectral.parse_spec))
    monkeypatch.setattr(report, "parse_spec", counted("parse", report.parse_spec))
    monkeypatch.setattr(report, "dumps_canonical", counted("dump", report.dumps_canonical))
    assert main(["verify", str(report_path), str(spec_path)]) == 0
    assert capsys.readouterr().out == "report verified: all checkable claims reproduced\n"
    assert calls.count("parse") == 1 and calls.count("dump report") == 1


def test_a_long_verify_mismatch_line_is_bounded(tmp_path, capsys):
    # the recomputed s8 model section at K=7 quotes as some 72,000 characters
    spec_path = _write_spec(tmp_path, text=fixture_path("s8").read_text())
    report_path = tmp_path / "report.json"
    assert main(["model", str(spec_path), "--max-degree", "7", "--format", "json", "--report", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    doc["model"] = None
    report_path.write_text(json.dumps(doc))
    assert main(["verify", str(report_path), str(spec_path)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert len(line) < 1000 and line.startswith("mismatch: model: report has None, recomputation gives {")


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


NO_INVARIANT_ONE_FORM = (
    '{"n": 3, "symbols": ["b"], "blocks": [{"kind": "real", "size": 2, "re": "b"},'
    ' {"kind": "real", "size": 1, "re": "-2*b"}]}'
)
NO_WITNESS_REASON = (
    "no invariant form of type F + eta ^ a exists (exact grid decision, scoped to this construction)"
)


def test_even_dimension_without_an_invariant_one_form_has_no_witness(tmp_path, capsys):
    # unimodular of total dimension 4, but no invariant 1-form and no closed
    # 2-form: the search answers with a reason, in JSON and in text, and verifies
    spec_path = _write_spec(tmp_path, text=NO_INVARIANT_ONE_FORM)
    report_path = tmp_path / "report.json"
    assert main(["analyze", str(spec_path), "--format", "json", "--report", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["assumptions"]["unimodular_trace_zero"] is True
    assert doc["unipotent"]["dims"]["1"] == 0
    assert doc["symplectic"] == {
        "applicable": True, "closed_two_basis": [], "witness": None, "reason": NO_WITNESS_REASON,
    }
    assert main(["analyze", str(spec_path)]) == 0
    assert f"\nsymplectic: none ({NO_WITNESS_REASON})\n" in capsys.readouterr().out
    assert main(["verify", str(report_path), str(spec_path)]) == 0
    assert capsys.readouterr() == ("report verified: all checkable claims reproduced\n", "")


def test_verify_against_another_input_is_a_mismatch(tmp_path, capsys):
    torus3 = _write_spec(tmp_path, "torus3.json", fixture_path("torus3").read_text())
    report_path = tmp_path / "report.json"
    assert main(["analyze", str(torus3), "--format", "json", "--report", str(report_path)]) == 0
    assert main(["verify", str(report_path), str(_write_spec(tmp_path))]) == 1
    assert capsys.readouterr() == ("", "mismatch: echoed input differs from the supplied document\n")


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_max_degree_below_one_is_refused(tmp_path, capsys, degree):
    assert main(["analyze", str(_write_spec(tmp_path)), "--max-degree", degree]) == 1
    assert capsys.readouterr() == ("", "error: --max-degree must be at least 1\n")


def test_text_names_the_degrees_where_the_twist_chose(tmp_path, capsys):
    assert main(["analyze", str(_write_spec(tmp_path, text=B2B2)), "--max-degree", "4"]) == 0
    assert "\n  twist involved a choice in degrees: 4\n" in capsys.readouterr().out


def test_schema_violation_exit_code(tmp_path, capsys):
    bad = _write_spec(tmp_path, "bad.json", '{"n": 5, "blocks": [{"kind": "real", "size": 1}]}')
    assert main(["analyze", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


TENTH = "0.1000000000000000000001"  # a binary float rounds it to 1/10


@pytest.mark.parametrize("re", [TENTH, "1e400", "NaN", "-Infinity", "2.0"])
def test_inexact_json_number_is_refused(tmp_path, capsys, re):
    # a number with a fraction or an exponent would reach the parser already
    # rounded (1e400 as inf), so it is refused and the rational asked for as a string
    doc = f'{{"n":2,"blocks":[{{"kind":"real","size":1,"re":{re}}},{{"kind":"real","size":1,"re":"-{TENTH}"}}]}}'
    assert main(["unipotent", str(_write_spec(tmp_path, text=doc))]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: JSON number {re} is not exact: numbers must be integers, "
        'and a rational is written as a string, e.g. "1/10"\n'
    )


@pytest.mark.parametrize("re, term", [("1/-2", "1/"), ("b2*b", "b2")])
def test_bad_rational_term_quotes_the_whole_literal(tmp_path, capsys, re, term):
    # the literal is split at its signs before each term is parsed, so the
    # message names the term that failed and the literal it came from
    doc = f'{{"n":2,"symbols":["b"],"blocks":[{{"kind":"real","size":1,"re":"{re}"}},{{"kind":"real","size":1,"re":"-b"}}]}}'
    assert main(["analyze", str(_write_spec(tmp_path, text=doc))]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: blocks[0].re: not a rational literal: {term!r} in scalar literal {re!r}\n"


@pytest.mark.parametrize(
    "re, message",
    [
        ("1-", "blocks[0].re: dangling sign in scalar literal '1-'"),
        ("2*3", "blocks[0].re: bad symbol name '3' in scalar literal '2*3'"),
    ],
)
def test_malformed_scalar_literal_is_refused_with_one_line(tmp_path, capsys, re, message):
    doc = {"n": 2, "blocks": [{"kind": "real", "size": 1, "re": re}, {"kind": "real", "size": 1}]}
    assert main(["analyze", str(_write_spec(tmp_path, text=json.dumps(doc)))]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_rational_strings_and_integer_numbers_stay_exact(tmp_path, capsys):
    doc = f'{{"n":2,"blocks":[{{"kind":"real","size":1,"re":"{TENTH}"}},{{"kind":"real","size":1,"re":"-{TENTH}"}}]}}'
    spec_path = _write_spec(tmp_path, text=doc)
    assert main(["unipotent", str(spec_path), "--max-degree", "1", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["input"]["blocks"][0]["re"] == "1000000000000000000001/10000000000000000000000"
    assert report["assumptions"]["unimodular_trace_zero"] is True
    assert report["unipotent"]["dims"] == {"0": 1, "1": 0, "2": 1}  # a1 ^ a2 is resonant
    integers = '{"n": 2, "blocks": [{"kind": "real", "size": 1, "re": 3}, {"kind": "real", "size": 1, "re": -3}]}'
    assert main(["unipotent", str(_write_spec(tmp_path, text=integers))]) == 0


def _echo_of(tmp_path, capsys, field, literal):
    """(exit code, stderr, echoed field) of ``unipotent --format json`` on one complex block."""
    doc = {"n": 2, "blocks": [{"kind": "complex", "size": 1, field: literal}]}
    code = main(["unipotent", str(_write_spec(tmp_path, text=json.dumps(doc))), "--format", "json"])
    out, err = capsys.readouterr()
    return code, err, json.loads(out)["input"]["blocks"][0][field] if out else None


@pytest.mark.parametrize(
    "field, literal, echo",
    [
        ("re", ".5", "1/2"),
        ("re", "5.", "5"),
        ("re", "+3", "3"),
        ("re", "-0.250", "-1/4"),
        ("im_resonant", " 7/14\t", "1/2"),
        ("im_resonant", "-12/4", "-3"),
    ],
)
def test_ascii_rational_literals_keep_their_values(tmp_path, capsys, field, literal, echo):
    # the grammar: an optional sign, then ASCII digits with "/digits" or one
    # decimal point, with surrounding whitespace
    assert _echo_of(tmp_path, capsys, field, literal) == (0, "", echo)


@pytest.mark.parametrize(
    "field, literal, message",
    [
        ("re", "１", "blocks[0].re: not a rational literal: '１' in scalar literal '１'"),  # fullwidth digit
        ("im_resonant", "٣", "blocks[0].im_resonant: not a rational literal: '٣'"),  # Arabic-Indic digit
        ("re", "1_000", "blocks[0].re: not a rational literal: '1_000' in scalar literal '1_000'"),
        ("im_resonant", "1/0", "blocks[0].im_resonant: not a rational literal: '1/0'"),
        ("im_resonant", "1/00", "blocks[0].im_resonant: not a rational literal: '1/00'"),
        ("im_resonant", "1.5.2", "blocks[0].im_resonant: not a rational literal: '1.5.2'"),
        ("im_resonant", ".", "blocks[0].im_resonant: not a rational literal: '.'"),
    ],
)
def test_literal_outside_the_grammar_is_refused_with_one_line(tmp_path, capsys, field, literal, message):
    assert _echo_of(tmp_path, capsys, field, literal) == (1, f"error: {message}\n", None)


def test_literal_past_the_digit_limit_is_refused_and_one_at_it_echoes(tmp_path, capsys):
    # a literal is refused when its numerator or denominator would have more digits
    # than Python converts to text; a decimal with k digits after the point has a
    # denominator of k + 1 digits, so ".1...1" with `limit` ones is refused
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    at_limit = ["9" * limit, "0." + "1" * (limit - 1), "1/" + "7" * limit]
    for literal in at_limit:
        code, err, echo = _echo_of(tmp_path, capsys, "im_resonant", literal)
        assert (code, err) == (0, "") and echo == str(Fraction(literal)), literal[:8]
    past = ["9" * (limit + 1), "." + "1" * limit, "1/" + "7" * (limit + 1), "0." + "1" * limit]
    for literal in past:
        code, err, echo = _echo_of(tmp_path, capsys, "im_resonant", literal)
        assert code == 1 and echo is None and err.count("\n") == 1, literal[:8]
        assert err == (
            f"error: blocks[0].im_resonant: rational literal of {limit + 1} digits "
            f"is above Python's limit of {limit} digits\n"
        )


@pytest.mark.parametrize("term", ["{n}", "{n}*b"], ids=["constant", "symbol coefficient"])
def test_sum_past_the_digit_limit_is_refused_like_a_literal(tmp_path, capsys, term):
    # each term is within the limit, but their sum has one digit more and could not
    # be echoed; it is refused at parse time with the literal's one-line message
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    re = " + ".join([term.format(n="9" * limit)] * 2)
    doc = {"n": 1, "symbols": ["b"], "blocks": [{"kind": "real", "size": 1, "re": re}]}
    path = _write_spec(tmp_path, text=json.dumps(doc))
    assert main(["unipotent", str(path), "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (
        f"error: blocks[0].re: rational literal of {limit + 1} digits is above Python's limit of "
        f"{limit} digits in scalar literal {re[:32]!r}... ({len(re)} characters)\n"
    )


def test_refusal_of_a_long_literal_quotes_an_excerpt(tmp_path, capsys):
    # the line names the field and the limit, and quotes the literal's head and length
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    cases = [("9" * (limit + 1), f"above Python's limit of {limit} digits"), ("1" * 5000 + "x", "not a rational")]
    for literal, reason in cases:
        code, err, _ = _echo_of(tmp_path, capsys, "re", literal)
        assert code == 1 and err.count("\n") == 1 and len(err) < 200, err[:200]
        assert err.startswith("error: blocks[0].re: ") and reason in err
        assert f"{literal[:32]!r}... ({len(literal)} characters)" in err


def test_an_interpreter_without_a_digit_limit_parses_the_fixtures(monkeypatch):
    # sys.get_int_max_str_digits came with Python 3.11 and 3.10.7; without it there
    # is no limit to impose, and every fixture parses as it does with one
    expected = {name: load_spec(fixture_path(name)) for name in ("s6", "s8", "torus3")}
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert scalars._digit_limit() == 0
    for name, spec in expected.items():
        assert load_spec(fixture_path(name)) == spec
    doc = '{"n": 2, "blocks": [{"kind": "complex", "size": 1, "re": "1/3 + 2/3", "im_resonant": "4"}]}'
    assert spectral.parse_spec(doc).blocks[0].re == 1


def test_hypothesis_violation_exit_code(tmp_path, capsys):
    doc = '{"n": 2, "blocks": [{"kind": "complex", "size": 1, "im_resonant": "1/2"}]}'
    bad = _write_spec(tmp_path, "frac.json", doc)
    assert main(["cohomology", str(bad)]) == 1
    assert "modification hypothesis" in capsys.readouterr().err


def test_unreadable_input_exit_code(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.json")]) == 1
    assert "cannot read input" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing file", "directory"])
def test_verify_names_the_report_it_cannot_read(tmp_path, capsys, where):
    torus3 = str(_write_spec(tmp_path, text=fixture_path("torus3").read_text()))
    report_path = str(tmp_path / "missing.json" if where == "missing file" else tmp_path)
    assert main(["verify", report_path, torus3]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: cannot read report: [Errno ") and err.endswith(f"{report_path!r}\n")
    # an unreadable input keeps its own message
    assert main(["verify", torus3, report_path]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read input: [Errno ")


def test_unwritable_report_path_exit_code(tmp_path, capsys):
    spec_path = _write_spec(tmp_path, text=fixture_path("torus3").read_text())
    report_path = tmp_path / "missing" / "r.json"
    assert main(["analyze", str(spec_path), "--report", str(report_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--report="], ["--report", ""]])
def test_empty_report_path_is_unwritable(tmp_path, capsys, argv):
    # an empty path once sent the report to stdout and exited 0
    spec_path = _write_spec(tmp_path, text=fixture_path("torus3").read_text())
    assert main(["unipotent", str(spec_path), *argv, "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
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
    # slot table is built before its 10**8 + 1 count vectors are refused
    def building(*args):
        raise AssertionError("the slot table was built")

    monkeypatch.setattr(monodromy, "_slot_table", building)
    monkeypatch.setattr(spectral, "_slot_table", building)
    text = json.dumps({"n": 10**8, "blocks": [{"kind": "real", "size": 10**8}]})
    spec_path = _write_spec(tmp_path, text=text)
    assert main(["unipotent", str(spec_path), "--max-degree", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: fiber too large: its slot weights give 100000001 weight-count vectors, "
        "above the limit of 65536\n"
    )


@pytest.mark.parametrize("command", ["unipotent", "analyze", "verify"])
@pytest.mark.parametrize(
    "block, n",
    [
        ({"kind": "real", "size": 10**30}, 10**30),
        ({"kind": "complex", "size": 10**30, "im_resonant": "1"}, 2 * 10**30),
    ],
)
def test_block_past_a_machine_size_is_refused_with_one_line(tmp_path, capsys, command, block, n):
    # a range this long has no len(), so the slots are counted from the block size
    doc = {"n": n, "blocks": [block]}
    spec_path = _write_spec(tmp_path, text=json.dumps(doc))
    argv = [command, str(spec_path)]
    if command == "verify":  # a report that echoes the input: its check recomputes the stages
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps({"format_version": 1, "input": doc, "max_degree": 1}))
        argv.insert(1, str(report_path))
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: fiber too large: its slot weights give at least 10**12 weight-count vectors, "
        "above the limit of 65536\n"
    )


def test_both_runs_of_a_complex_block_count_every_slot(tmp_path, capsys):
    # the two conjugate runs of a size-300 block are weight groups of 300 slots
    # each, so (300 + 1)**2 count vectors; the run from start + 1 is not one short
    doc = {"n": 600, "blocks": [{"kind": "complex", "size": 300, "im_resonant": "1"}]}
    assert main(["unipotent", str(_write_spec(tmp_path, text=json.dumps(doc)))]) == 1
    assert capsys.readouterr().err == (
        "error: fiber too large: its slot weights give 90601 weight-count vectors, "
        "above the limit of 65536\n"
    )


@pytest.mark.parametrize(
    "blocks, message",
    [
        # 2**15000 weight-count vectors, a count past the cap, which is not printed
        (
            [{"kind": "real", "size": 1, "re": str(i)} for i in range(1, 15001)],
            "its slot weights give at least 10**12 weight-count vectors, above the limit of 65536",
        ),
        # 16,001 count vectors, but binomials of up to 4,815 digits
        (
            [{"kind": "real", "size": 16000}],
            "the degree-4 unipotent slice has at least 10**12 resonant monomials, above the limit of 10000",
        ),
    ],
)
def test_oversized_fibers_are_refused_with_capped_counts(tmp_path, capsys, blocks, message):
    # both counts stop at a cap far above their limits, so neither refusal forms
    # a huge integer or puts one into its message
    text = json.dumps({"n": sum(b["size"] for b in blocks), "blocks": blocks})
    assert main(["analyze", str(_write_spec(tmp_path, text=text))]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: fiber too large: {message}\n"


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


def test_symplectic_expansion_past_its_product_limit_is_refused(tmp_path, capsys):
    # torus15's fourth level would hold 675,675 products of basis 2-forms; the
    # expansion stops past the limit within seconds, while torus11 is admitted
    def torus(n):
        return json.dumps({"n": n, "blocks": [{"kind": "real", "size": 1}] * n})

    spec_path = _write_spec(tmp_path, text=torus(15))
    assert main(["symplectic", str(spec_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: symplectic expansion too large: level 4 of the pairing polynomial exceeds "
        "300000 products of basis 2-forms\n"
    )
    spec_path = _write_spec(tmp_path, text=torus(11))
    assert main(["symplectic", str(spec_path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["symplectic"]["witness"] is not None


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


# --max-degree is an optional sign and ASCII digits; a value of more than 40 digits
# is not converted and is refused as that long, and a value that is not an integer is
# quoted by at most 32 characters
TOO_LONG = "error: --max-degree of more than 40 digits is above the limit of 1000\n"
MAX_DEGREE_VALUES = {
    "plus sign": ("+2", 2),
    "leading zeros past 40 digits": ("0" * 40 + "2", 2),
    "underscore": ("1_0", "error: --max-degree must be an integer, got '1_0'\n"),
    "fullwidth digit": ("\uff13", "error: --max-degree must be an integer, got '\uff13'\n"),
    "leading space": (" 2", "error: --max-degree must be an integer, got ' 2'\n"),
    "trailing newline": ("2\n", "error: --max-degree must be an integer, got '2\\n'\n"),
    "hexadecimal": ("0x2", "error: --max-degree must be an integer, got '0x2'\n"),
    "letters": ("abc", "error: --max-degree must be an integer, got 'abc'\n"),
    "empty": ("", "error: --max-degree must be an integer, got ''\n"),
    "minus one": ("-1", "error: --max-degree must be at least 1\n"),
    "40 digits": ("9" * 40, f"error: --max-degree {'9' * 40} is above the limit of 1000\n"),
    "41 digits": ("9" * 41, TOO_LONG),
    "4,000 digits": ("9" * 4000, TOO_LONG),
    "5,000 digits": ("9" * 5000, TOO_LONG),
    "5,000-digit negative": ("-" + "9" * 5000, "error: --max-degree must be at least 1\n"),
    "5,001 characters, not an integer": ("1" * 5000 + "x", f"error: --max-degree must be an integer, got {'1' * 32!r}... (5001 characters)\n"),
}


@pytest.mark.parametrize("value, outcome", MAX_DEGREE_VALUES.values(), ids=MAX_DEGREE_VALUES.keys())
def test_max_degree_grammar(tmp_path, capsys, value, outcome):
    spec_path = str(_write_spec(tmp_path, text=fixture_path("torus3").read_text()))
    for argv in (["--max-degree", value], [f"--max-degree={value}"]):
        code = main(["unipotent", spec_path, "--format", "json", *argv])
        out, err = capsys.readouterr()
        if isinstance(outcome, int):
            assert (code, err, json.loads(out)["max_degree"]) == (0, "", outcome)
        else:
            assert (code, out, err) == (1, "", outcome)
            assert len(err) < 200


def test_a_library_degree_past_the_digit_limit_is_refused_unformatted():
    # str() of this int raises ValueError past Python's digit limit
    with pytest.raises(solvform.InputError, match=r"^--max-degree of more than 40 digits is above the limit of 1000$"):
        solvform.Analysis(load_spec(fixture_path("torus3")), 10**5000)
    with pytest.raises(solvform.InputError, match=r"^--max-degree must be at least 1$"):
        solvform.Analysis(load_spec(fixture_path("torus3")), -(10**5000))


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
