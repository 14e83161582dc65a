"""Co-symplectic search, certificates, and the exact grid decision."""

import random
from fractions import Fraction
from itertools import product

import pytest

from solvform import (
    CoSymplecticPair,
    InputError,
    InternalInvariantViolation,
    Multivector,
    closed_two_classes,
    find_symplectic,
    parse_spec,
    verify_symplectic,
)
from solvform import symplectic
from solvform.exterior import top_coefficient, wedge_power
from solvform.monodromy import nilpotent_submodule
from solvform.scalars import ScalarLC
from solvform.symplectic import _witness_from_pair, assemble_omega

NIL322 = """{"n": 7, "blocks": [{"kind": "real", "size": 3},
                              {"kind": "real", "size": 2},
                              {"kind": "real", "size": 2}]}"""

S10 = """{"n": 9, "symbols": ["b"],
          "blocks": [{"kind": "real", "size": 3},
                     {"kind": "complex", "size": 1, "re": "b", "im_resonant": "1"},
                     {"kind": "complex", "size": 1, "re": "-b", "im_resonant": "1"},
                     {"kind": "complex", "size": 1, "im_resonant": "1"}]}"""


def mono(n, *indices):
    return Multivector.monomial(n, indices)


def test_closed_two_classes_s6(s6):
    assert closed_two_classes(s6) == [
        mono(5, 2, 3), mono(5, 3, 4), mono(5, 3, 5), mono(5, 4, 5),
    ]


def test_closed_two_classes_s8(s8):
    assert closed_two_classes(s8) == [
        mono(7, 2, 3), mono(7, 4, 6), mono(7, 4, 7), mono(7, 5, 6), mono(7, 5, 7),
    ]


def test_closed_two_classes_torus(torus4):
    assert len(closed_two_classes(torus4)) == 3


def test_s6_witness_and_certificates(s6):
    witness = find_symplectic(s6)
    assert witness is not None
    assert str(witness.pair.two_form) == "a23 + a45"
    assert str(witness.pair.one_form) == "a1"
    assert witness.pairing == ScalarLC(2)
    assert witness.omega_top == ScalarLC(6)
    ok, certs = verify_symplectic(s6, witness)
    assert ok
    assert certs["ce_closed"] and certs["expansion_identity"] and certs["fiber_power_vanishes"]


def test_s8_witness(s8):
    witness = find_symplectic(s8)
    assert witness is not None
    ok, _ = verify_symplectic(s8, witness)
    assert ok
    assert not witness.omega_top.is_zero()


def test_torus4_standard_witness(torus4):
    witness = find_symplectic(torus4)
    assert witness is not None
    assert verify_symplectic(torus4, witness)[0]


def test_degenerate_candidate_rejected(s6):
    # both terms share a coordinate, so the square of the 2-form vanishes
    pair = CoSymplecticPair(mono(5, 3, 4) + mono(5, 4, 5), mono(5, 1))
    assert wedge_power(pair.two_form, 2).is_zero()
    assert find_symplectic(s6, candidate=pair) is None


def test_good_candidate_accepted(s6):
    pair = CoSymplecticPair(mono(5, 2, 3) + mono(5, 4, 5), mono(5, 1))
    witness = find_symplectic(s6, candidate=pair)
    assert witness is not None and witness.omega_top == ScalarLC(6)


def test_candidate_outside_invariant_submodule_rejected(s8):
    # nondegenerate on the fiber but not built from invariant classes
    pair = CoSymplecticPair(
        mono(7, 1, 4) + mono(7, 2, 5) + mono(7, 3, 6), mono(7, 7)
    )
    assert find_symplectic(s8, candidate=pair) is None


def test_candidate_violating_shift_kernel_rejected(s6):
    # invariant classes, nondegenerate, but not closed in the modified complex
    pair = CoSymplecticPair(mono(5, 1, 2) + mono(5, 4, 5), mono(5, 3))
    assert find_symplectic(s6, candidate=pair) is None


def test_tampered_omega_field_fails_verification(s6):
    witness = find_symplectic(s6)
    witness.omega = witness.omega + Multivector.monomial(6, (1, 2))
    ok, certs = verify_symplectic(s6, witness)
    assert not ok and not certs["omega_matches_pair"]


def test_odd_total_dimension_errors(torus3):
    with pytest.raises(InputError, match="odd"):
        find_symplectic(torus3)


def test_empty_search_space_returns_none():
    # real eigenvalues b and -b/2 (twice): no invariant 1- or 2-forms at all
    doc = """{"n": 3, "symbols": ["b"],
              "blocks": [{"kind": "real", "size": 1, "re": "b"},
                         {"kind": "real", "size": 2, "re": "-1/2*b"}]}"""
    spec = parse_spec(doc)
    assert nilpotent_submodule(spec, 2) == []
    assert find_symplectic(spec) is None


def test_omega_expansion_identity(s6, s8, torus4):
    for spec in (s6, s8, torus4):
        half = (spec.n + 1) // 2
        witness = find_symplectic(spec)
        assert witness.omega_top == witness.pairing * half


def test_fiber_power_vanishes_identically(s6):
    rng = random.Random(81)
    basis = closed_two_classes(s6)
    for _ in range(50):
        f = Multivector.zero(5, 2)
        for u in basis:
            f = f + u.scaled(Fraction(rng.randint(-3, 3)))
        assert wedge_power(f, 3).is_zero()


def test_every_witness_passes_verification_on_random_resonant_specs():
    rng = random.Random(82)
    from conftest import random_resonant_spec

    found = 0
    for _ in range(30):
        spec = random_resonant_spec(rng, n_max=5)
        if (spec.n + 1) % 2:
            continue
        witness = find_symplectic(spec)
        if witness is None:
            continue
        ok, _ = verify_symplectic(spec, witness)
        assert ok
        found += 1
    assert found >= 5


def _grid_search(spec):
    """Reference decision: the first nonzero pairing on the whole integer grid.

    Walks {0..N-1} per closed 2-form coefficient, then {0,1} per 1-form
    coefficient, in lexicographic order; exponential, so small cases only.
    """
    half = (spec.n + 1) // 2
    f_basis = closed_two_classes(spec)
    e_basis = nilpotent_submodule(spec, 1)
    if not e_basis:
        return None
    for f_point in product(range(half), repeat=len(f_basis)):
        two_form = Multivector.zero(spec.n, 2)
        for c, u in zip(f_point, f_basis):
            if c:
                two_form = two_form + u.scaled(c)
        f_power = wedge_power(two_form, half - 1)
        if f_power.is_zero():
            continue
        for e_point in product(range(2), repeat=len(e_basis)):
            one_form = Multivector.zero(spec.n, 1)
            for c, u in zip(e_point, e_basis):
                if c:
                    one_form = one_form + u.scaled(c)
            if not top_coefficient(f_power.wedge(one_form)).is_zero():
                return _witness_from_pair(spec, half, CoSymplecticPair(two_form, one_form))
    return None


def _outcome(witness):
    if witness is None:
        return None
    pair = witness.pair
    return str(pair.two_form), str(pair.one_form), str(witness.pairing), str(witness.omega_top)


# nonempty closed 2-form and 1-form bases whose pairing polynomial is zero
NO_FORM = [
    '{"n": 3, "symbols": ["b"], "blocks": [{"kind": "real", "size": 2},'
    ' {"kind": "real", "size": 1, "re": "b"}]}',
    '{"n": 5, "symbols": ["b"], "blocks": [{"kind": "real", "size": 2},'
    ' {"kind": "real", "size": 2, "re": "b"}, {"kind": "real", "size": 1, "re": "-2*b"}]}',
]


def test_decision_matches_grid_oracle_on_fixtures(s6, s8, torus4):
    for spec in (s6, s8, torus4):
        assert _outcome(find_symplectic(spec)) == _outcome(_grid_search(spec))
    for doc in NO_FORM:
        spec = parse_spec(doc)
        assert closed_two_classes(spec) and nilpotent_submodule(spec, 1)
        assert find_symplectic(spec) is None and _grid_search(spec) is None


def test_decision_matches_grid_oracle_on_random_specs():
    from conftest import random_resonant_spec, random_unimodular_spec

    rng = random.Random(84)
    outcomes = []
    while len(outcomes) < 36:
        make = random_unimodular_spec if len(outcomes) % 2 else random_resonant_spec
        spec = make(rng, n_max=5)
        if (spec.n + 1) % 2:
            continue
        expected = _outcome(_grid_search(spec))
        assert _outcome(find_symplectic(spec)) == expected, spec
        outcomes.append(expected)
    assert len(set(outcomes)) >= 4


def test_nil322_witness():
    spec = parse_spec(NIL322)
    assert len(closed_two_classes(spec)) == 9
    witness = find_symplectic(spec)
    assert _outcome(witness) == ("a27 - a36 + a45", "a1", "-6", "-24")
    assert verify_symplectic(spec, witness)[0]


def test_disagreeing_pairing_is_an_internal_error(s6, monkeypatch):
    # the decision raises a classified error (not an assert) when the
    # rebuilt pairing contradicts the pairing polynomial
    monkeypatch.setattr(symplectic, "_witness_from_pair", lambda *args: None)
    with pytest.raises(InternalInvariantViolation, match="pairing polynomial"):
        find_symplectic(s6)


def test_s10_witness_is_verified():
    spec = parse_spec(S10)
    witness = find_symplectic(spec)
    assert witness is not None
    ok, certs = verify_symplectic(spec, witness)
    assert ok and certs["ce_closed"]


class _TestPoly:
    """Tiny multivariate polynomial over the rationals for the grid oracle."""

    def __init__(self, coeffs=None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls({tuple(e): Fraction(1)})

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return _TestPoly(out)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return _TestPoly(out)

    def scale(self, c):
        return _TestPoly({e: c * v for e, v in self.coeffs.items()})

    def is_zero(self):
        return not self.coeffs


def _symbolic_pairing(spec, f_basis, e_basis):
    """Expand the pairing polynomial fully in the search parameters."""
    nvars = len(f_basis) + len(e_basis)
    half = (spec.n + 1) // 2
    keys = {}

    def poly_form(vectors, offset):
        terms = {}
        for i, u in enumerate(vectors):
            var = _TestPoly.variable(nvars, offset + i)
            for key, coeff in u.terms.items():
                add = var.scale(coeff.as_fraction())
                terms[key] = terms.get(key, _TestPoly()) + add
        return terms

    f_terms = poly_form(f_basis, 0)
    e_terms = poly_form(e_basis, len(f_basis))

    def wedge_terms(a, b):
        from solvform.exterior import merge_indices

        out = {}
        for u, cu in a.items():
            for v, cv in b.items():
                merged = merge_indices(u, v)
                if merged is None:
                    continue
                sign, key = merged
                out[key] = out.get(key, _TestPoly()) + (cu * cv).scale(Fraction(sign))
        return out

    acc = {(): _TestPoly({(0,) * nvars: Fraction(1)})}
    for _ in range(half - 1):
        acc = wedge_terms(acc, f_terms)
    acc = wedge_terms(acc, e_terms)
    return acc.get(tuple(range(1, spec.n + 1)), _TestPoly())


def test_grid_decision_matches_symbolic_expansion_small_cases():
    # up to 3 parameters: the exhaustive grid verdict must equal full expansion
    rng = random.Random(83)
    from conftest import random_resonant_spec

    checked = 0
    while checked < 10:
        spec = random_resonant_spec(rng, n_max=3)
        if (spec.n + 1) % 2:
            continue
        f_basis = closed_two_classes(spec)
        e_basis = nilpotent_submodule(spec, 1)
        if len(f_basis) + len(e_basis) > 3:
            continue
        symbolic = _symbolic_pairing(spec, f_basis, e_basis)
        witness = find_symplectic(spec)
        assert (witness is None) == symbolic.is_zero()
        checked += 1


def test_assembled_omega_lives_on_total_space(s6):
    witness = find_symplectic(s6)
    omega = assemble_omega(s6, witness.pair)
    assert omega.n == 6 and omega.degree == 2
    assert top_coefficient(wedge_power(omega, 3)) == witness.omega_top
