"""Run one solvform CLI operation in this fresh process and report on it.

Usage: python3 bench/worker.py JOB_JSON

JOB_JSON holds ``src`` (directory holding the ``solvform`` package),
``input`` (the instance document), ``argv`` (arguments for
``solvform.cli.main``) and ``mode``: ``plain``, ``trace`` (per-layer
spans and counts, see ``layertrace.py``), ``setup`` (set-up only) or
``oracle`` (no CLI call: compare ``nilpotent_submodule`` with
``nilpotent_submodule_oracle`` in every degree where the oracle
applies).

The worker also measures the host's speed, which the benchmark divides
its times by (see ``bench/run.py``): it times a small fixed pure-Python
reference kernel (``reference_kernel``) ``BOUNDARY_RUNS`` times before
it imports the package and again after the operation, and once every
``PROBE_INTERVAL_S`` of wall time during the operation, from a
``SIGALRM`` handler (``SpeedProbe``).  The probes make the measure follow
the host through a long operation, whose speed can change several times
while it runs; their own time is taken out of the operation's time.  The
kernel must run in the worker itself: the worker and the benchmark's
own process may sit on different cores, whose speeds change
independently.

The last line of standard output is one JSON object: the kernel times
(before, during and after), their total, the set-up time (import plus
loading the input), the operation's wall time, its exit code, any
traceback, the captured standard output, ``ru_maxrss`` and, when traced,
the per-layer summary.  The package is not installed, so
the worker puts ``src`` on ``sys.path`` itself.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import sys
import traceback
from fractions import Fraction
from time import perf_counter

REFERENCE_ITERATIONS = 300  # about 1 ms on an uncontended core
BOUNDARY_RUNS = 20
PROBE_INTERVAL_S = 0.05


def _kernel() -> None:
    acc: dict = {}
    x = Fraction(1, 3)
    for i in range(REFERENCE_ITERATIONS):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + Fraction(i % 11 + 1, i % 7 + 1) * x


def reference_kernel() -> float:
    """Wall time of a fixed amount of exact-rational and dict work.

    It is the same kind of interpreter work as the package's (``Fraction``
    arithmetic, tuple keys, dict updates), so a slower or busier host
    slows it about as much as the operation it is measured next to.  The
    cyclic collector is off while it runs, so that the program's heap
    cannot change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    _kernel()
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class SpeedProbe:
    """Times the reference kernel every ``PROBE_INTERVAL_S`` while active."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall time the probes took, handler included

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(reference_kernel())
        self.spent += perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _oracle_mismatches(spec) -> list[int]:
    from solvform import monodromy

    if not monodromy.oracle_applicable(spec):
        return []
    return [
        k
        for k in range(spec.n + 1)
        if not monodromy.spans_match(
            monodromy.nilpotent_submodule(spec, k), monodromy.nilpotent_submodule_oracle(spec, k)
        )
    ]


def main() -> int:
    job = json.loads(sys.argv[1])
    begin = perf_counter()
    for _ in range(3):  # lets the interpreter specialize the kernel's code first
        _kernel()
    ref_before = [reference_kernel() for _ in range(BOUNDARY_RUNS)]
    ref_total_s = perf_counter() - begin
    sys.path.insert(0, job["src"])
    start = perf_counter()
    import solvform.cli
    from solvform.spectral import load_spec

    spec = load_spec(job["input"])
    setup_s = perf_counter() - start

    result = {"ref_before": ref_before, "ref_total_s": ref_total_s, "setup_s": setup_s,
              "traceback": None, "stdout": "", "exit": 0}
    if job["mode"] in ("setup", "oracle"):
        if job["mode"] == "oracle":
            result["oracle_mismatch_degrees"] = _oracle_mismatches(spec)
        print(json.dumps(result))
        return 0

    tracer = None
    if job["mode"] == "trace":
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    captured_out, captured_err = io.StringIO(), io.StringIO()
    probe = SpeedProbe()
    start = perf_counter()
    try:
        with probe, contextlib.redirect_stdout(captured_out), contextlib.redirect_stderr(captured_err):
            code = solvform.cli.main(job["argv"])
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception:  # the CLI leaked an exception: the interpreter would exit 1
        code = 1
        result["traceback"] = traceback.format_exc()
    result["op_s"] = perf_counter() - start - probe.spent
    result["ref_during"] = probe.samples
    begin = perf_counter()
    result["ref_after"] = [reference_kernel() for _ in range(BOUNDARY_RUNS)]
    result["ref_total_s"] += probe.spent + perf_counter() - begin
    result["exit"] = code
    result["stdout"] = captured_out.getvalue()[-2000:]
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
