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
must not load ``importlib.resources``.  Every ``functools.lru_cache`` in the package must be
bounded by ``SLICE_CACHE_SIZE``.  There is no wall-clock gate; only
the imports are checked.  A one-second traced run of ``bench/run.py`` on
the cohomology-nil7 workload must report itself correct with no failed
operation.
"""

import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import solvform
from solvform import fixture_path
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
