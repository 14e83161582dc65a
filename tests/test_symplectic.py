"""Co-symplectic search, certificates, and the exact grid decision."""

import random
from fractions import Fraction
from itertools import product

import pytest

from solvform import (
    CoSymplecticPair,
    HypothesisError,
    InputError,
    InternalInvariantViolation,
    Multivector,
    SymplecticWitness,
    build_report,
    closed_two_classes,
    find_symplectic,
    fixture_path,
    parse_spec,
    verify_symplectic,
)
from solvform import symplectic
from solvform.cli import main
from solvform.exterior import top_coefficient, wedge_power
from solvform.monodromy import nilpotent_submodule
from solvform.scalars import ScalarLC
from solvform.symplectic import assemble_omega

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


def _wedge_witness(spec, pair):
    """A witness whose pairing and top power are formed by wedge products."""
    half = (spec.n + 1) // 2
    pairing = top_coefficient(wedge_power(pair.two_form, half - 1).wedge(pair.one_form))
    omega = assemble_omega(pair)
    return SymplecticWitness(pair, omega, pairing, top_coefficient(wedge_power(omega, half)))


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
    assert witness.omega_top != 0


def test_torus4_standard_witness(torus4):
    witness = find_symplectic(torus4)
    assert witness is not None
    assert verify_symplectic(torus4, witness)[0]


def test_degenerate_candidate_rejected(s6):
    # both terms share a coordinate, so the square of the 2-form vanishes;
    # the witness is closed and self-consistent, and fails on its pairing alone
    pair = CoSymplecticPair(mono(5, 3, 4) + mono(5, 4, 5), mono(5, 1))
    assert wedge_power(pair.two_form, 2).is_zero()
    ok, certs = verify_symplectic(s6, _wedge_witness(s6, pair))
    assert not ok and certs["pairing"] == "0"
    assert certs["ce_closed"] and certs["expansion_identity"] and certs["omega_matches_pair"]


def test_candidate_violating_shift_kernel_rejected(s6):
    # invariant classes, nondegenerate, but not closed in the modified complex
    pair = CoSymplecticPair(mono(5, 1, 2) + mono(5, 4, 5), mono(5, 3))
    ok, certs = verify_symplectic(s6, _wedge_witness(s6, pair))
    assert not ok and not certs["ce_closed"]
    assert certs["pairing"] != "0" and certs["expansion_identity"] and certs["omega_matches_pair"]


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


HALF_TURN = """{"n": 7, "blocks": [{"kind": "real", "size": 3},
                                 {"kind": "complex", "size": 2, "im_resonant": "1/2"}]}"""

THIRD_TURNS = """{"n": 5, "blocks": [{"kind": "real", "size": 1},
                                   {"kind": "complex", "size": 1, "im_resonant": "1/3"},
                                   {"kind": "complex", "size": 1, "im_resonant": "2/3"}]}"""


@pytest.mark.parametrize(
    "doc, expected",
    [
        (HALF_TURN, ["a23", "a46", "a47 + a56", "a57", "a67"]),
        (THIRD_TURNS, ["a23", "a24 - a35", "a25 + a34", "a45"]),
    ],
)
def test_closed_two_classes_without_modification_hypothesis(doc, expected):
    # the unipotent submodule and its shift kernel need no hypothesis
    assert [str(u) for u in closed_two_classes(parse_spec(doc))] == expected


def test_find_symplectic_refuses_specs_failing_the_hypothesis():
    # a witness here could not pass verify_symplectic, which needs the
    # modified action; a half-turn rotation has no such modification
    with pytest.raises(HypothesisError):
        find_symplectic(parse_spec(HALF_TURN))


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
            if top_coefficient(f_power.wedge(one_form)) != 0:
                return _wedge_witness(spec, CoSymplecticPair(two_form, one_form))
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


def test_disagreeing_pairing_is_an_internal_error(s6, monkeypatch, capsys):
    # a doubled polynomial keeps the grid point and doubles the pairing; the
    # wedge recheck catches it and the report refuses with a classified error
    expand = symplectic._pairing_polynomial
    monkeypatch.setattr(
        symplectic,
        "_pairing_polynomial",
        lambda *args: {exps: 2 * coeff for exps, coeff in expand(*args).items()},
    )
    witness = find_symplectic(s6)
    assert str(witness.pair.two_form) == "a23 + a45" and witness.pairing == 4
    ok, certs = verify_symplectic(s6, witness)
    assert not ok and certs["pairing"] == "2"
    with pytest.raises(InternalInvariantViolation, match="certificates"):
        build_report(s6, 2)
    capsys.readouterr()
    assert main(["analyze", str(fixture_path("s6")), "--max-degree", "2"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("internal invariant violation: symplectic witness fails its certificates")


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
                add = var.scale(Fraction(coeff))
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
    omega = assemble_omega(witness.pair)
    assert omega.n == 6 and omega.degree == 2
    assert top_coefficient(wedge_power(omega, 3)) == witness.omega_top


NIL11 = """{"n": 11, "blocks": [{"kind": "real", "size": 4},
                              {"kind": "real", "size": 4},
                              {"kind": "real", "size": 3}]}"""


def _wedge_pairing_polynomial(spec, half, f_basis, e_basis) -> dict:
    """Reference expansion by repeated ``Multivector`` wedges: ``F^(half-1)`` is
    multiplied out along every ordered path, so each monomial collects its
    multinomial factor by addition."""
    powers = {(0,) * len(f_basis): Multivector.unit(spec.n)}
    for _ in range(half - 1):
        expanded = {}
        for exps, form in powers.items():
            for i, u in enumerate(f_basis):
                term = form.wedge(u)
                if term.is_zero():
                    continue
                key = exps[:i] + (exps[i] + 1,) + exps[i + 1 :]
                prev = expanded.get(key)
                expanded[key] = term if prev is None else prev + term
        powers = {exps: form for exps, form in expanded.items() if not form.is_zero()}
    poly = {}
    for exps, form in powers.items():
        for j, e in enumerate(e_basis):
            coeff = top_coefficient(form.wedge(e))
            if coeff:
                poly[exps + tuple(int(i == j) for i in range(len(e_basis)))] = coeff
    return poly


def test_pairing_polynomial_matches_the_wedge_expansion(s6, s8, torus3, torus4, heisenberg3):
    from conftest import random_resonant_spec, random_unimodular_spec

    rng = random.Random(61)
    specs = [s6, s8, torus3, torus4, heisenberg3]
    specs += [parse_spec(text) for text in (NIL322, S10, NIL11)]
    for draw in (random_resonant_spec, random_unimodular_spec):
        drawn = 0
        while drawn < 60:
            spec = draw(rng, n_max=7)
            if spec.n % 2:
                specs.append(spec)
                drawn += 1
    checked = nonzero = 0
    for spec in specs:
        if spec.n % 2 == 0:
            continue  # odd total dimension: no pairing
        half = (spec.n + 1) // 2
        f_basis, e_basis = closed_two_classes(spec), nilpotent_submodule(spec, 1)
        poly = symplectic._pairing_polynomial(half, f_basis, e_basis)
        assert poly == _wedge_pairing_polynomial(spec, half, f_basis, e_basis), spec
        checked += 1
        nonzero += bool(poly)
    assert checked == 3 + 3 + 120 and nonzero > 60


def test_pairing_polynomial_matches_the_wedge_expansion_on_fractions(s8):
    # a hand-built basis with non-integral entries and 2-forms of nonzero
    # square, so repeated indices carry the multinomial weights 3 and 1
    f_basis = [
        Multivector(7, 2, {(1, 2): Fraction(1, 2), (3, 4): Fraction(2, 3), (5, 6): 1}),
        Multivector(7, 2, {(1, 3): 3, (2, 5): Fraction(-5, 7), (4, 6): 1}),
        Multivector(7, 2, {(2, 3): Fraction(1, 3), (1, 4): 2, (6, 7): -1}),
    ]
    e_basis = [
        Multivector(7, 1, {(7,): Fraction(3, 2)}),
        Multivector(7, 1, {(1,): 1, (5,): Fraction(-1, 4), (3,): 2}),
    ]
    poly = symplectic._pairing_polynomial(4, f_basis, e_basis)
    assert poly == _wedge_pairing_polynomial(s8, 4, f_basis, e_basis)
    assert any(Fraction(c).denominator != 1 for c in poly.values())
    assert any(2 in exps[:3] for exps in poly) and any(3 in exps[:3] for exps in poly)
