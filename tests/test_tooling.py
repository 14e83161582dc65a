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
"""

import importlib
import inspect
import json
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import solvform
from solvform import fixture_path, load_spec
from solvform.monodromy import oracle_applicable
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



def test_every_memo_is_bounded_by_the_slice_cache_size():
    # "the memos are bounded" (README): every functools.lru_cache wrapper in the
    # package, module-level or on a class, holds at most SLICE_CACHE_SIZE entries
    found = {}
    for info in pkgutil.iter_modules(solvform.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"solvform.{info.name}")
        objects = list(vars(module).values())
        objects += [v for cls in objects if inspect.isclass(cls) for v in vars(cls).values()]
        for obj in objects:
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj.cache_parameters()["maxsize"]
    assert "solvform.spectral._shift_index_map" in found
    assert "solvform.monodromy._shift_slice" in found
    assert found == dict.fromkeys(found, SLICE_CACHE_SIZE)
