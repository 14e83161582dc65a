"""The benchmark's view of the package: tracer hooks and CLI start-up.

``bench/layertrace.py`` wraps functions and methods of the package by
name (``linalg.rref``, ``EchelonAccumulator.add``, ``MinimalModel.d_poly``
and others).  A refactor that renames or bypasses them would break
``bench/run.py --trace 1`` without failing any other test, so this runs a
traced ``analyze`` in a fresh interpreter, the way a benchmark worker does.
A CLI call in a fresh interpreter must also not import ``argparse`` or
``gettext``, must not newly load ``dataclasses`` or ``inspect`` (whose
import and class decorators were about a third of the start-up), and must
load nothing outside the package and the standard library.  New modules
are taken as ``set(sys.modules)`` after the call minus the set before the
package import, so a module that ``site`` preloads (a third-party
``.pth`` file may import ``importlib.resources``, for one) does not make
the checks flaky.  Importing the CLI under ``python -S``, where nothing is preloaded,
must not load ``importlib.resources``.  A JSON ``analyze`` and a ``verify``
must load neither ``solvform.oracle`` (no report runs it) nor
``solvform.text`` (the renderer of ``--format text``); a text run loads the
renderer and prints the bytes pinned before it moved, and
``monodromy.nilpotent_submodule_oracle`` and ``monodromy.spans_match``, the
names ``bench/worker.py`` calls, still resolve.  Every ``functools.lru_cache``
in the package must be bounded by ``SLICE_CACHE_SIZE``.  There is no
wall-clock gate; only the imports are checked.  A one-second traced run of
``bench/run.py`` on the cohomology-nil7 workload must report itself correct
with no failed operation, and the worker's oracle mode, the benchmark's
oracle gate, must find no mismatch on nil7 and on a seeded random instance.
A dead-code gate profiles CLI runs, verify and the oracle in-process: every
package function they never call must be on a commented allow-list.  The
version is stated once: the report's ``generator`` field reads
``solvform.__version__``, and ``pyproject.toml`` must carry the same one.
The independent certifier ``tests/certify.py`` names no ``solvform`` module
in an import, and a fresh interpreter that runs its checks on a fixture
report ends with no ``solvform`` module loaded.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import random
import re
import subprocess
import sys
from pathlib import Path

import solvform
from solvform import build_report, cli, fixture_path, load_spec, monodromy, nilpotent_submodule
from solvform.monodromy import oracle_applicable
from solvform.report import STAGES
from solvform.spectral import SLICE_CACHE_SIZE

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import solvform.cli
import layertrace

tracer = layertrace.Tracer()
layertrace.install(tracer)
code = solvform.cli.main(
    ["analyze", sys.argv[3], "--max-degree", "2", "--report", sys.argv[4], "--format", "json"]
)
print(json.dumps({"exit": code, "counts": tracer.summary()["counts"]}))
"""


def test_traced_analyze_counts_the_kernel_hooks(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            SCRIPT,
            str(ROOT / "src"),
            str(ROOT / "bench"),
            str(fixture_path("s6")),
            str(tmp_path / "report.json"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["exit"] == 0
    counts = result["counts"]
    # the benchmark wraps these by name, so a renamed method fails here too
    hooks = ("linalg.rref", "linalg.echelon_add", "minimal_model.d_poly")
    hooks += ("minimal_model.rho_poly", "minimal_model.class_reps", "minimal_model.add_generator")
    # the symplectic stage's spans: its entry and the wedges with which
    # verify_symplectic rechecks the witness
    hooks += ("symplectic.find_symplectic", "exterior.wedge")
    # build_report reaches each section by name; a route around these
    # methods would leave the benchmark's report.section.*_s at zero
    hooks += tuple(f"report.section.{stage}" for stage in STAGES)
    hooks += ("formality.build_twisted_model",)
    for name in hooks:
        assert counts.get(name, 0) > 0, name
    assert counts["linalg.rref.rows"] >= counts["linalg.rref.rank"] > 0


def test_benchmark_smoke_run_is_correct():
    # one short traced run of the benchmark's fiber workload: its correctness
    # gate (golden digests, verify, the oracle) and its tracer must both pass
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cohomology-nil7", "--seed", "1"]
        + ["--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] > 0


FRESH_CLI = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)  # site may have preloaded third-party modules
import solvform.cli

with contextlib.redirect_stdout(io.StringIO()):
    code = solvform.cli.main(["analyze", sys.argv[2]])
allowed = sys.stdlib_module_names | {"solvform"}
new = set(sys.modules) - before
print(json.dumps({
    "exit": code,
    "loaded": [m for m in ("argparse", "gettext") if m in sys.modules],
    "class_machinery": [m for m in ("dataclasses", "inspect") if m in new],
    "foreign": sorted(m for m in new if m.partition(".")[0] not in allowed),
}))
"""


def test_cli_run_imports_no_argument_parser():
    # the two command shapes are parsed by hand; argparse would also pull in
    # gettext (and locale) on first use, a fixed cost on every CLI call; the
    # package is stdlib-only at run time
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_CLI, str(ROOT / "src"), str(fixture_path("s6"))],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {
        "exit": 0, "loaded": [], "class_machinery": [], "foreign": []
    }


DEFERRED = """
import contextlib, hashlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import solvform.cli
from solvform import monodromy

spec, report = sys.argv[2], sys.argv[3]
lazy = ("solvform.oracle", "solvform.text")
code, loaded = 0, {}
with contextlib.redirect_stdout(io.StringIO()):
    code += solvform.cli.main(["analyze", spec, "--format", "json", "--report", report])
    code += solvform.cli.main(["verify", report, spec])
loaded["json"] = [m for m in lazy if m in sys.modules]
text = io.StringIO()
with contextlib.redirect_stdout(text):
    code += solvform.cli.main(["analyze", spec, "--max-degree", "3", "--format", "text"])
loaded["text"] = [m for m in lazy if m in sys.modules]
oracle = [monodromy.nilpotent_submodule_oracle.__module__, monodromy.spans_match.__module__]
try:
    unknown = repr(monodromy.no_such_name)
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "exit": code,
    "loaded": loaded,
    "text_sha256": hashlib.sha256(text.getvalue().encode()).hexdigest(),
    "oracle": oracle,
    "unknown": unknown,
}))
"""


def test_json_runs_compile_neither_the_oracle_nor_the_text_renderer(tmp_path):
    # no report runs the brute-force oracle and only --format text renders
    # text, so both modules load on first use; the benchmark's oracle gate
    # reaches the oracle through the two lazy names of monodromy
    argv = [str(ROOT / "src"), str(fixture_path("s6")), str(tmp_path / "r.json")]
    proc = subprocess.run(
        [sys.executable, "-c", DEFERRED, *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {
        "exit": 0,
        "loaded": {"json": [], "text": ["solvform.text"]},
        # s6 analyze --max-degree 3 --format text, recorded before the renderer moved
        "text_sha256": "7ecd5f2a584d416d866d133252abcaae9cd63d0fa49c1aad1d6f732ab3383ac5",
        "oracle": ["solvform.oracle", "solvform.oracle"],
        "unknown": "module 'solvform.monodromy' has no attribute 'no_such_name'",
    }


ORACLE_SEED = 23  # random_unimodular_doc of this seed: complex blocks rotating 2 and 1 full turns


def test_benchmark_oracle_gate_passes(tmp_path, monkeypatch):
    # the worker's oracle mode, as Run.check_oracle spawns it, on nil7 and on a
    # seeded instance of the sweep's generator where the oracle applies
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    bench_run = importlib.import_module("run")
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps(bench_run.random_unimodular_doc(random.Random(ORACLE_SEED))))
    for path in (ROOT / "bench" / "inputs" / "nil7.json", seeded):
        assert oracle_applicable(load_spec(path)), path
        job = {"mode": "oracle", "src": str(ROOT / "src"), "input": str(path), "argv": []}
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "worker.py"), json.dumps(job)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["exit"] == 0 and result["traceback"] is None, result
        assert result["oracle_mismatch_degrees"] == [], path


BARE_IMPORT = """
import sys
sys.path.insert(0, sys.argv[1])
import solvform.cli
print("importlib.resources" in sys.modules)
"""


def test_cli_import_without_site_skips_importlib_resources():
    # only fixture_path needs importlib.resources, which brings pathlib,
    # zipfile and tempfile; -S keeps site from preloading it
    proc = subprocess.run(
        [sys.executable, "-S", "-c", BARE_IMPORT, str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _package_members() -> list:
    """``(module, member)`` for the top-level objects of every package module and
    the attributes of its classes."""
    out = []
    for info in pkgutil.iter_modules(solvform.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"solvform.{info.name}")
        objects = list(vars(module).values())
        objects += [v for cls in objects if inspect.isclass(cls) for v in vars(cls).values()]
        out += [(module, obj) for obj in objects]
    return out


def test_every_memo_is_bounded_by_the_slice_cache_size():
    # "the memos are bounded" (README): every functools.lru_cache wrapper in the
    # package, module-level or on a class, holds at most SLICE_CACHE_SIZE entries
    found = {}
    for module, obj in _package_members():
        if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
            found[f"{obj.__module__}.{obj.__qualname__}"] = obj.cache_parameters()["maxsize"]
    assert "solvform.spectral._shift_index_map" in found
    assert "solvform.monodromy._shift_slice" in found
    assert found == dict.fromkeys(found, SLICE_CACHE_SIZE)


def _package_functions(members) -> dict:
    """Every function and method defined in the package, by code object, named
    ``module.qualname``; properties, classmethods and memos are unwrapped."""
    found = {}
    for module, obj in members:
        obj = getattr(obj, "fget", obj)
        obj = getattr(obj, "__func__", obj)
        obj = getattr(obj, "__wrapped__", obj)
        code = getattr(obj, "__code__", None)
        if code is not None and code.co_filename == module.__file__:
            found[code] = f"{module.__name__.partition('.')[2]}.{obj.__qualname__}"
    return found


# Package functions that no CLI run, verify or oracle run calls, each kept on purpose.
NEVER_RUN = {
    "minimal_model.MinimalModel.p_mul",  # bench/layertrace.py wraps it by name
    "cohomology.betti_numbers",  # the README's example calls it
    "exterior.Multivector.__hash__",  # keeps forms usable as set members and dict keys
    # the input document as canonical text; reports echo spec_document, the tests
    # and the fuzz generators write their inputs with it
    "spectral.emit_spec",
    # unary minus of the scalar type: since the slot table carries no conjugate
    # weight no run negates a ScalarLC, but the tests' spec generators do
    "scalars.ScalarLC.__neg__",
    # debugging aids: the reprs, and the guard that keeps ScalarLC immutable
    "exterior.Multivector.__repr__",
    "exterior.LinearEndo.__repr__",
    "scalars.ScalarLC.__repr__",
    "scalars.ScalarLC.__setattr__",
}


def test_every_package_function_runs_or_is_listed(tmp_path):
    # a dead-code gate: under a profile hook, analyze each fixture at K=3 in both
    # formats, verify a report, a re-indented copy and a tampered one, refuse an inexact input and a
    # literal outside the grammar, run the unipotent stage on a spec outside the
    # modification hypothesis (the only CLI route to the realification) and run the
    # oracle through the names the benchmark reads; every package function never
    # called is listed above
    members = _package_members()
    functions = _package_functions(members)
    for _, obj in members:
        if hasattr(obj, "cache_clear") and obj.__module__.startswith("solvform."):
            obj.cache_clear()  # a memo filled by an earlier test would hide its function
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    report = str(tmp_path / "report.json")
    inexact = tmp_path / "inexact.json"
    inexact.write_text('{"n": 1, "blocks": [{"kind": "real", "size": 1, "re": 0.5}]}')
    ungrammatical = tmp_path / "ungrammatical.json"
    ungrammatical.write_text('{"n": 1, "blocks": [{"kind": "real", "size": 1, "re": "1_000"}]}')
    third_turn = tmp_path / "third_turn.json"
    third_turn.write_text(
        '{"n": 6, "blocks": [{"kind": "complex", "size": 2, "im_resonant": "1/3"}, {"kind": "real", "size": 2}]}'
    )
    codes = []
    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for name in ("s6", "s8", "torus3", "torus4", "heisenberg3"):
                path = str(fixture_path(name))
                codes.append(cli.main(["analyze", path, "--max-degree", "3", "--format", "text"]))
                codes.append(cli.main(["analyze", path, "--max-degree", "3", "--format", "json", "--report", report]))
            codes.append(cli.main(["verify", report, path]))
            doc = json.loads(Path(report).read_text())
            Path(report).write_text(json.dumps(doc, indent=2))  # equal, but compared section by section
            codes.append(cli.main(["verify", report, path]))
            doc["cohomology"]["betti"]["1"] += 1
            Path(report).write_text(json.dumps(doc))
            codes.append(cli.main(["verify", report, path]))
            codes.append(cli.main(["unipotent", str(inexact)]))
            codes.append(cli.main(["unipotent", str(ungrammatical)]))
            codes.append(cli.main(["unipotent", str(third_turn)]))
            spec = load_spec(path)
            for k in range(spec.n + 1):
                oracle = monodromy.nilpotent_submodule_oracle(spec, k)
                assert monodromy.spans_match(oracle, nilpotent_submodule(spec, k))
    finally:
        sys.setprofile(None)
    assert codes == [0] * 12 + [1, 1, 1, 0]
    assert {name for code, name in functions.items() if code not in called} == NEVER_RUN


def test_the_version_is_stated_once():
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: the one version line of the project table
        version = re.search(r'^version = "([^"]*)"$', text, re.MULTILINE)[1]
    else:
        version = tomllib.loads(text)["project"]["version"]
    assert version == solvform.__version__
    report = build_report(load_spec(fixture_path("torus3")), 1)
    assert report["generator"] == {"name": "solvform", "version": solvform.__version__}


CERTIFY = """
import json, sys
sys.path.insert(0, sys.argv[1])
import certify

report = json.load(open(sys.argv[2]))
print(json.dumps({
    "betti": certify.betti_numbers(report["input"]) == report["cohomology"]["betti"],
    "dumps": certify.certify_dumps(report["model"]["dump"], report["formality"]["total_model"]),
    "claims": certify.certify_report(report),
    "loaded": sorted(m for m in sys.modules if m.split(".")[0] == "solvform"),
}))
"""


def test_the_certifier_imports_nothing_from_the_package(tmp_path):
    tree = ast.parse((ROOT / "tests" / "certify.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not [name for name in imported if name.split(".")[0] == "solvform"]
    report = tmp_path / "s6.json"
    report.write_text(json.dumps(build_report(load_spec(fixture_path("s6")), 3)))
    proc = subprocess.run(
        [sys.executable, "-c", CERTIFY, str(ROOT / "tests"), str(report)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"betti": True, "dumps": [], "claims": [], "loaded": []}
