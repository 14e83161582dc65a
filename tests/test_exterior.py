"""Exterior algebra: wedge, derivations, exponentials, top coefficients."""

import random
from fractions import Fraction

import pytest

from conftest import (
    follows_the_coefficient_rule,
    random_multivector,
    random_strict_endo,
    symbol,
    wedge,
)
from solvform.exterior import (
    LinearEndo,
    Multivector,
    coordinate_vector,
    derivation_apply,
    primitive_part,
    top_coefficient,
    wedge_power,
)
from solvform.minimal_model import build_minimal_model
from solvform.monodromy import nilpotent_submodule
from solvform.oracle import algebra_map_apply, exp_nilpotent, monomials
from solvform.scalars import ScalarLC
from solvform.spectral import modified_matrix
from solvform.symplectic import closed_two_classes, find_symplectic


def mv(n, *term_pairs):
    return Multivector(n, len(term_pairs[0][0]), [(k, Fraction(c)) for k, c in term_pairs])


def test_wedge_basic_monomials():
    a1 = Multivector.basis_one_form(5, 1)
    a2 = Multivector.basis_one_form(5, 2)
    assert wedge(a1, a2) == mv(5, ((1, 2), 1))
    assert wedge(a2, a1) == mv(5, ((1, 2), -1))
    assert wedge(a1, a1).is_zero()


def test_square_of_two_form_doubles_cross_terms():
    f = mv(5, ((2, 3), 1), ((4, 5), 1))
    assert wedge(f, f) == mv(5, ((2, 3, 4, 5), 2))


def test_wedge_beyond_ambient_dimension_is_zero():
    f = mv(3, ((1, 2), 1))
    assert wedge(f, f).is_zero() and wedge(f, f).degree == 4


def test_sign_normalization_at_construction():
    assert Multivector.monomial(5, (2, 1)) == mv(5, ((1, 2), -1))
    assert Multivector.monomial(5, (2, 2)).is_zero()


def _shift_endo_s6():
    # dual shift a1 -> a2 -> a3 -> 0 in a 5-dimensional fiber
    n = 5
    images = [Multivector.zero(n, 1) for _ in range(n)]
    images[0] = Multivector.basis_one_form(n, 2)
    images[1] = Multivector.basis_one_form(n, 3)
    return LinearEndo(n, images)


def test_derivation_examples():
    shift = _shift_endo_s6()
    assert derivation_apply(shift, mv(5, ((2, 3), 1))).is_zero()
    assert derivation_apply(shift, mv(5, ((1, 2), 1))) == mv(5, ((1, 3), 1))
    zero = LinearEndo(5, [Multivector.zero(5, 1)] * 5)
    x = mv(5, ((1, 4), 2), ((2, 5), -1))
    assert derivation_apply(zero, x).is_zero()


def test_top_coefficient():
    assert top_coefficient(wedge(mv(5, ((2, 3, 4, 5), 1)), Multivector.basis_one_form(5, 1))) == ScalarLC(1)
    assert top_coefficient(Multivector.zero(5, 5)) == 0
    assert top_coefficient(mv(7, ((1, 2, 3, 4, 5, 6, 7), 3))) == ScalarLC(3)
    with pytest.raises(ValueError):
        top_coefficient(mv(5, ((1, 2), 1)))


def test_graded_commutativity_random():
    rng = random.Random(21)
    cases = 0
    while cases < 150:
        n = rng.randint(2, 6)
        p, q = rng.randint(0, n), rng.randint(0, n)
        a = random_multivector(rng, n, p)
        b = random_multivector(rng, n, q)
        sign = -1 if (p * q) % 2 else 1
        assert wedge(a, b) == wedge(b, a).scaled(sign)
        cases += 1


def test_wedge_associativity_random():
    rng = random.Random(22)
    for _ in range(150):
        n = rng.randint(2, 6)
        a = random_multivector(rng, n, rng.randint(0, 2))
        b = random_multivector(rng, n, rng.randint(0, 2))
        c = random_multivector(rng, n, rng.randint(0, 2))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_derivation_leibniz_random():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(2, 6)
        endo = random_strict_endo(rng, n)
        a = random_multivector(rng, n, rng.randint(0, 2))
        b = random_multivector(rng, n, rng.randint(0, 2))
        lhs = derivation_apply(endo, wedge(a, b))
        rhs = wedge(derivation_apply(endo, a), b) + wedge(a, derivation_apply(endo, b))
        assert lhs == rhs


def test_derivation_nilpotent_for_nilpotent_endomorphism():
    rng = random.Random(24)
    for _ in range(100):
        n = rng.randint(2, 5)
        endo = random_strict_endo(rng, n)
        k = rng.randint(1, n)
        x = random_multivector(rng, n, k)
        steps = 0
        while not x.is_zero():
            x = derivation_apply(endo, x)
            steps += 1
            assert steps <= k * n + 1


def test_symbolic_coefficients_flow_through_wedge():
    b = symbol("b")
    x = Multivector(4, 1, [((1,), b)])
    y = Multivector.basis_one_form(4, 2)
    assert wedge(x, y) == Multivector(4, 2, [((1, 2), b)])
    # both factors symbolic on disjoint monomials cannot stay linear
    z = Multivector(4, 1, [((3,), b)])
    with pytest.raises(ValueError):
        wedge(x, z)


def test_coefficients_are_fractions_unless_a_symbol_survives(s6, s8):
    # every symbol-free coefficient is an exact rational, stored by the rule
    forms = [u for k in range(s8.n + 1) for u in nilpotent_submodule(s8, k)]
    forms += closed_two_classes(s8) + [g.rho for g in build_minimal_model(s8, 3).gens]
    witness = find_symplectic(s6)
    forms.append(witness.omega)
    assert forms
    for form in forms:
        assert all(map(follows_the_coefficient_rule, form.terms.values())), form
    assert follows_the_coefficient_rule(witness.pairing)
    assert follows_the_coefficient_rule(witness.omega_top)
    # a symbol that cancels leaves its rational, equal and equally hashed
    b = symbol("b")
    half = mv(4, ((1,), Fraction(1, 2)))
    for rest, expected in ((1, Multivector.basis_one_form(4, 1)), (Fraction(1, 2), half)):
        cancelled = Multivector(4, 1, [((1,), b), ((1,), rest - b)])
        assert follows_the_coefficient_rule(cancelled.terms[(1,)])
        assert cancelled == expected and hash(cancelled) == hash(expected)
    with pytest.raises(ValueError):
        coordinate_vector(Multivector(4, 1, [((1,), b)]))


def test_coefficients_follow_one_rule_in_every_layer(s8, s10, nil322):
    forms, rows = [], []
    for spec in (s8, s10, nil322):
        forms += list(modified_matrix(spec).images)
        forms += [u for k in range(spec.n + 1) for u in nilpotent_submodule(spec, k)]
        model = build_minimal_model(spec, 3)
        forms += [g.rho for g in model.gens]
        rows += [g.differential for g in model.gens]
        for k in range(1, 4):
            rows += [r for rep in model.class_reps(k) for r in (rep.poly, rep.rho)]
    coefficients = [c for form in forms for c in form.terms.values()]
    coefficients += [c for row in rows for c in row.values()]
    assert all(map(follows_the_coefficient_rule, coefficients))
    types = set(map(type, coefficients))
    assert int in types and ScalarLC in types
    # a product of fractions that comes out integral is stored as an int
    half = mv(4, ((1,), Fraction(1, 2)))
    assert type(wedge(half, mv(4, ((2,), 2))).terms[(1, 2)]) is int
    assert Multivector.zero(4, 1).coefficient((1,)) == 0


def test_algebra_map_vs_derivation_exponential():
    # exp of a derivation acts as the multiplicative extension of exp on 1-forms
    rng = random.Random(25)
    for _ in range(50):
        n = rng.randint(2, 5)
        endo = random_strict_endo(rng, n)
        phi = exp_nilpotent(endo)
        k = rng.randint(1, n)
        x = random_multivector(rng, n, k)
        total = Multivector.zero(n, k)
        term = x
        m = 0
        fact = 1
        while not term.is_zero():
            total = total + term.scaled(Fraction(1, fact))
            term = derivation_apply(endo, term)
            m += 1
            fact *= m
        assert algebra_map_apply(phi, x) == total


def test_algebra_map_skips_terms_killed_early():
    # a1 -> 0 kills a12 after one factor; the result is the degree-2 zero
    n = 2
    endo = LinearEndo(n, [Multivector.zero(n, 1), Multivector.basis_one_form(n, 2)])
    x = mv(n, ((1, 2), 1))
    assert algebra_map_apply(endo, x) == Multivector.zero(n, 2)


def test_exp_nilpotent_rejects_non_nilpotent():
    n = 2
    ident = LinearEndo(n, [Multivector.basis_one_form(n, i) for i in (1, 2)])
    with pytest.raises(ValueError):
        exp_nilpotent(ident)


def test_wedge_power_and_primitive_part():
    f = mv(5, ((2, 3), 1), ((4, 5), 1))
    assert wedge_power(f, 2) == mv(5, ((2, 3, 4, 5), 2))
    assert primitive_part(wedge_power(f, 2)) == mv(5, ((2, 3, 4, 5), 1))
    scaled = mv(4, ((1, 2), Fraction(-2, 3)), ((3, 4), Fraction(4, 3)))
    prim = primitive_part(scaled)
    assert prim == mv(4, ((1, 2), 1), ((3, 4), -2))


def test_monomials_lexicographic():
    assert monomials(4, 2) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert monomials(3, 0) == [()]
    assert monomials(3, 4) == []
