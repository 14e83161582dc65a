"""In-process memo of the per-(spec, degree) slices."""

import importlib
import inspect

import pytest

from solvform import build_report, verify_report
from solvform.cohomology import cohomology
from solvform.monodromy import _nilpotent_submodule, _shift_slice, nilpotent_submodule
from solvform.symplectic import closed_two_classes

MEMOS = (_nilpotent_submodule, _shift_slice)


def _clear():
    for memo in MEMOS:
        memo.cache_clear()


def test_report_computes_each_degree_once(s8):
    _clear()
    report = build_report(s8, 3)
    # cohomology in degrees 0..n+1 needs the shift kernel and cokernel of
    # degrees 0..n; the unipotent section alone asks for the submodule in
    # degrees 0..n, and the model, formality and symplectic stages (the
    # closed 2-forms are the degree-2 shift kernel) only ask again for
    # degrees inside that range
    distinct = s8.n + 1
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.misses == distinct, memo.__name__
        assert info.currsize == distinct, memo.__name__
        assert info.hits > 0, memo.__name__
    # verify recomputes every section from the same memo
    before = [memo.cache_info().misses for memo in MEMOS]
    ok, mismatches = verify_report(report, s8)
    assert ok, mismatches
    assert [memo.cache_info().misses for memo in MEMOS] == before


def test_cached_results_are_not_aliased(s6):
    _clear()
    basis = nilpotent_submodule(s6, 2)
    closed = closed_two_classes(s6)
    kernel = cohomology(s6, 1).kernel_reps
    assert basis and closed and kernel
    expected = (list(basis), list(closed), list(kernel))
    for returned in (basis, closed, kernel):
        returned.reverse()
        returned.append(returned[0])
    assert nilpotent_submodule(s6, 2) == expected[0]
    assert closed_two_classes(s6) == expected[1]
    assert cohomology(s6, 1).kernel_reps == expected[2]
    assert _nilpotent_submodule.cache_info().hits > 0


@pytest.mark.parametrize(
    "module, name",
    [
        ("monodromy", "nilpotent_submodule"),
        ("monodromy", "shift_slice"),
        ("cohomology", "cohomology"),
        ("cohomology", "betti_numbers"),
        ("symplectic", "closed_two_classes"),
        ("spectral", "modified_matrix"),
        ("spectral", "nilpotent_log"),
    ],
)
def test_public_entry_points_stay_plain_functions(module, name):
    # the per-layer benchmark trace wraps only plain functions; a memo
    # decorator on one of these names would silently drop its counters
    obj = getattr(importlib.import_module(f"solvform.{module}"), name)
    assert inspect.isfunction(obj)
    assert obj.__module__ == f"solvform.{module}"
