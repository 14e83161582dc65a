"""Fuzzed documents through ``cli.main``: every input ends in exit 0 or 1.

Valid instance documents come from the seeded generators of ``conftest``;
corrupted variants of them and of their reports are truncated, carry bytes
that are not UTF-8, put a value of the wrong JSON type into one field, or
nest a field (or the whole document) deeply.  An input problem must exit
1 with a message and an internal error (exit 2) never happens.  The runs
are derandomized and the example counts bounded, so the suite stays fast
and reproducible.
"""

import contextlib
import io
import json
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from conftest import random_resonant_spec, random_unimodular_spec
from solvform import emit_spec
from solvform.cli import main

FUZZ = settings(derandomize=True, max_examples=100, deadline=None, database=None)

SPEC_FIELDS = [("n",), ("symbols",), ("lattice_label",), ("blocks",), ("extra",)]
SPEC_FIELDS += [("blocks", 0, f) for f in ("kind", "size", "re", "im_resonant", "im_symbolic")]
REPORT_FIELDS = [("format_version",), ("max_degree",), ("input",), ("input", "n"), ("cohomology",)]
REPORT_FIELDS += [("assumptions",), ("symplectic",), ("unipotent",), ("input", "blocks", 0, "re")]

SCALARS = st.sampled_from(["real", "complex", "0", "1", "-1", "1/2", "0.5", "b", "-b", "2*b", ""])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=6,
)
LEAF_VALUES = st.sampled_from([None, True, False, 0, 1, 3, -1, 0.5, "", "x", "a1", [], {}])
BAD_BYTES = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xfe\xff"])
DEPTHS = st.sampled_from([3, 100, 900, 100000])
SPECS = st.tuples(st.sampled_from([random_resonant_spec, random_unimodular_spec]), st.integers(0, 10**6))


def _spec_text(make, seed) -> str:
    return emit_spec(make(random.Random(seed), n_max=5))


def _set(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key] if isinstance(doc, dict) or key < len(doc) else {}
    if isinstance(doc, dict) or (isinstance(doc, list) and last < len(doc)):
        doc[last] = value


@st.composite
def corrupted(draw, text: str, fields) -> bytes:
    """``text`` truncated, with a byte that is not UTF-8, with a field of the
    wrong type, or with a field or the whole document nested deeply."""
    data = text.encode()
    kind = draw(st.sampled_from(["truncate", "bad byte", "wrong type", "deep field", "deep document"]))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "bad byte":
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(BAD_BYTES) + data[at:]
    if kind == "deep document":
        depth = draw(DEPTHS)
        return b"[" * depth + data + b"]" * depth
    doc = json.loads(text)
    path = draw(st.sampled_from(fields))
    if kind == "wrong type":
        _set(doc, path, draw(JSON_VALUES))
        return json.dumps(doc).encode()
    _set(doc, path, "@nest@")
    depth = draw(DEPTHS)
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"a":', "}")]))
    return json.dumps(doc).replace('"@nest@"', opener * depth + "1" + closer * depth).encode()


def _leaves(doc, path=()):
    """The paths of the values in ``doc`` that are neither objects nor lists."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _leaves(value, path + (key,))
    else:
        yield path


def _main(*argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def _report(spec_path, report_path) -> str:
    argv = ["analyze", str(spec_path), "--max-degree", "2", "--format", "json", "--report", str(report_path)]
    code, err = _main(*argv)
    assert code == 0, err
    return report_path.read_text()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(spec=SPECS)
def test_valid_documents_pass_analyze_then_verify(workdir, spec):
    spec_path, report_path = workdir / "valid.json", workdir / "valid-report.json"
    spec_path.write_text(_spec_text(*spec))
    _report(spec_path, report_path)
    code, err = _main("verify", str(report_path), str(spec_path))
    assert code == 0, err


@FUZZ
@given(data=st.data(), spec=SPECS)
def test_corrupted_inputs_exit_0_or_1(workdir, data, spec):
    spec_path = workdir / "input.json"
    spec_path.write_bytes(data.draw(corrupted(_spec_text(*spec), SPEC_FIELDS)))
    code, err = _main("analyze", str(spec_path), "--max-degree", "2")
    assert code in (0, 1), err
    assert code == 0 or (err.startswith("error: ") and err.count("\n") == 1), err


@FUZZ
@given(data=st.data(), spec=SPECS)
def test_corrupted_reports_exit_0_or_1(workdir, data, spec):
    spec_path, report_path = workdir / "spec.json", workdir / "report.json"
    spec_path.write_text(_spec_text(*spec))
    report_path.write_bytes(data.draw(corrupted(_report(spec_path, report_path), REPORT_FIELDS)))
    code, err = _main("verify", str(report_path), str(spec_path))
    assert code in (0, 1), err
    assert "Traceback" not in err and "internal" not in err, err


@FUZZ
@given(data=st.data(), spec=SPECS)
def test_a_changed_report_leaf_is_detected(workdir, data, spec):
    spec_path, report_path = workdir / "leaf.json", workdir / "leaf-report.json"
    spec_path.write_text(_spec_text(*spec))
    doc = json.loads(_report(spec_path, report_path))
    path = data.draw(st.sampled_from(sorted(_leaves(doc), key=repr)))
    old = doc
    for key in path:
        old = old[key]
    new = data.draw(LEAF_VALUES.filter(lambda value: json.dumps(value) != json.dumps(old)))
    _set(doc, path, new)
    report_path.write_text(json.dumps(doc))
    code, err = _main("verify", str(report_path), str(spec_path))
    assert code == 1, (path, new, err)
    assert any(line.startswith("mismatch: ") for line in err.splitlines()), err
    assert "Traceback" not in err, err
