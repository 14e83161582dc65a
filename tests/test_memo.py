"""In-process memos: the per-(spec, degree) slices, and per spec the resonant count
vectors, the slot table and the shift's index map; a lookup hashes no ``Fraction``."""

import importlib
import inspect
import json
import sys
from fractions import Fraction

import pytest

from conftest import generator_weights
from solvform import (
    build_report,
    dumps_canonical,
    exterior,
    fixture_path,
    formality,
    load_spec,
    minimal_model,
    monodromy,
    parse_spec,
    symplectic,
    verify_report,
)
from solvform.cohomology import cohomology
from solvform.monodromy import (
    _nilpotent_submodule,
    _resonant_counts,
    _shift_slice,
    nilpotent_submodule,
    resonant_monomials,
)
from solvform.scalars import ScalarLC
from solvform.spectral import SLICE_CACHE_SIZE, _shift_index_map, _slot_table
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
    combos = resonant_monomials(s6, 2)
    assert basis and closed and kernel and combos
    expected = (list(basis), list(closed), list(kernel), list(combos))
    for returned in (basis, closed, kernel, combos):
        returned.reverse()
        returned.append(returned[0])
    assert nilpotent_submodule(s6, 2) == expected[0]
    assert closed_two_classes(s6) == expected[1]
    assert cohomology(s6, 1).kernel_reps == expected[2]
    assert resonant_monomials(s6, 2) == expected[3]
    assert _nilpotent_submodule.cache_info().hits > 0
    assert _resonant_counts.cache_info().hits > 0


def test_degrees_past_the_fiber_stay_out_of_the_memo(torus3):
    # the model, formality and quasi-iso stages ask for every degree up to K;
    # those above n are empty and must not evict the real slices, so a large K
    # misses and keeps exactly the degrees 0..n, as a small one does
    for max_degree in (3, 300):
        _clear()
        report = build_report(torus3, max_degree)
        assert verify_report(report, torus3)[0]
        info = _nilpotent_submodule.cache_info()
        assert (info.misses, info.currsize) == (torus3.n + 1, torus3.n + 1), max_degree
        assert info.hits > info.misses
    assert nilpotent_submodule(torus3, torus3.n + 1) == nilpotent_submodule(torus3, -1) == []
    assert _nilpotent_submodule.cache_info().currsize == torus3.n + 1


def test_resonant_counts_are_computed_once_per_spec(s6, s8):
    _resonant_counts.cache_clear()
    for spec in (s6, s8):
        for k in range(spec.n + 1):
            resonant_monomials(spec, k)
    info = _resonant_counts.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    assert info.hits == s6.n + s8.n
    assert info.maxsize == SLICE_CACHE_SIZE
    groups, counts = _resonant_counts(s8)
    assert isinstance(groups, tuple) and all(isinstance(g, tuple) for g in groups)
    assert isinstance(counts, tuple) and all(isinstance(c, tuple) for c in counts)


def test_slot_table_is_read_once_per_spec(s6, s8):
    _clear()
    _slot_table.cache_clear()
    for spec in (s6, s8):
        for k in range(spec.n + 1):
            nilpotent_submodule(spec, k)
    info = _slot_table.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (2, 2, SLICE_CACHE_SIZE)
    assert info.hits == s6.n + s8.n
    table = _slot_table(s8)
    assert isinstance(table, tuple) and table[0] is None and len(table) == s8.n + 1
    assert all(type(entry) is tuple and type(entry[1]) is tuple for entry in table[1:])
    assert [(s.conj, s.terms) for s in generator_weights(s8)] == [entry[:2] for entry in table[1:]]


def test_shift_index_map_is_read_once_per_spec(monkeypatch, s6, s8):
    # the shift slices, the flag order of the model build and the twist all
    # apply the shift's index map; a report builds it once per spec
    read = []
    for module in (monodromy, minimal_model, formality):
        assert module._shift_index_map is _shift_index_map
        monkeypatch.setattr(module, "_shift_index_map", lambda spec: read.append(spec) or _shift_index_map(spec))
    _clear()
    _shift_index_map.cache_clear()
    try:
        for spec in (s6, s8):
            build_report(spec, 3)
        info = _shift_index_map.cache_info()
    finally:
        _shift_index_map.cache_clear()
    assert set(read) == {s6, s8} and len(read) > 2
    assert (info.misses, info.currsize, info.maxsize) == (2, 2, SLICE_CACHE_SIZE)
    assert info.hits > 0


def test_memo_keys_hash_no_fraction(monkeypatch, s8):
    # a memo lookup hashes the spec; the ScalarLC fields keep the hash taken when
    # they were built and an integral im_resonant is an int, so past their
    # construction no Fraction is hashed, however many lookups a report makes
    spec = load_spec(fixture_path("s8"))
    assert spec == s8 and spec is not s8
    callers = []
    plain = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda x: callers.append(sys._getframe(1).f_code) or plain(x))
    _clear()
    build_report(spec, 4)
    assert _nilpotent_submodule.cache_info().hits > 0
    assert all(code is ScalarLC.__init__.__code__ for code in callers)


def test_equal_specs_parsed_apart_share_one_entry(s8):
    _clear()
    text = fixture_path("s8").read_text()
    first, second = parse_spec(text), parse_spec(text)
    assert first == second and first is not second
    for spec in (first, second):
        for k in range(spec.n + 1):
            nilpotent_submodule(spec, k)
    info = _nilpotent_submodule.cache_info()
    assert (info.misses, info.hits, info.currsize) == (s8.n + 1, s8.n + 1, s8.n + 1)


def test_the_witness_is_wedged_only_by_its_recheck(monkeypatch, nil322):
    # the search gives the witness's values; verify_symplectic forms F^(N-1)
    # and omega^N once each, and verify_report rechecks no witness again
    calls = []
    power = exterior.wedge_power
    counted = lambda form, p: calls.append(p) or power(form, p)
    for module in (exterior, symplectic):
        monkeypatch.setattr(module, "wedge_power", counted)
    report = build_report(nil322, 3)
    assert len(calls) == 2
    ok, mismatches = verify_report(json.loads(dumps_canonical(report)), nil322)
    assert ok, mismatches
    assert len(calls) == 2 + 2


@pytest.mark.parametrize(
    "module, name",
    [
        ("monodromy", "nilpotent_submodule"),
        ("monodromy", "shift_slice"),
        ("monodromy", "resonant_monomials"),
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
