"""Exact scalar arithmetic and literal parsing."""

import random
from fractions import Fraction

import pytest

from conftest import symbol
from solvform.scalars import ScalarLC, parse_rational, parse_scalar


def test_rational_addition_exact():
    assert ScalarLC(Fraction(1, 2)) + ScalarLC(Fraction(1, 2)) == ScalarLC(1)


def test_symbol_cancellation():
    b = symbol("b")
    assert (b + (-b)).is_zero()


def test_partial_cancellation():
    # componentwise: constants cancel, symbol coefficients add
    a = ScalarLC(1, [("b", 2)])
    assert a + ScalarLC(-1, [("b", -1)]) == ScalarLC(0, [("b", 1)])
    assert a + ScalarLC(-1, [("b", 1)]) == ScalarLC(0, [("b", 3)])


def test_scale():
    assert ScalarLC(Fraction(1, 2), [("b", 1)]) * 2 == ScalarLC(1, [("b", 2)])
    assert (ScalarLC(5, [("b", 3)]) * 0).is_zero()
    assert symbol("b") * -1 == ScalarLC(0, [("b", -1)])


def test_zero_tests():
    assert ScalarLC(0).is_zero()
    assert not symbol("b").is_zero()
    # 1 and b are independent over the rationals, so 1 - b is nonzero
    assert not ScalarLC(1, [("b", -1)]).is_zero()


def test_symbolic_product_raises():
    b = symbol("b")
    with pytest.raises(ValueError):
        b * b
    # one rational factor is fine
    assert b * ScalarLC(Fraction(3, 2)) == ScalarLC(0, [("b", Fraction(3, 2))])


def test_add_is_associative_commutative_and_cancels():
    rng = random.Random(7)
    for _ in range(200):
        vals = [
            ScalarLC(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                [(s, Fraction(rng.randint(-3, 3))) for s in ("b", "c") if rng.random() < 0.5],
            )
            for _ in range(3)
        ]
        a, b, c = vals
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a + a * -1).is_zero()


def test_canonical_form_idempotent():
    a = ScalarLC(Fraction(2, 4), [("b", Fraction(6, 3)), ("a", 0)])
    rebuilt = ScalarLC(a.const, list(a.terms))
    assert rebuilt == a and rebuilt.terms == a.terms
    assert a.terms == (("b", Fraction(2)),)


def test_parse_scalar():
    assert parse_scalar("0") == ScalarLC(0)
    assert parse_scalar("3/2") == ScalarLC(Fraction(3, 2))
    assert parse_scalar("b", ("b",)) == symbol("b")
    assert parse_scalar("-b", ("b",)) == symbol("b", -1)
    assert parse_scalar("1/2*b", ("b",)) == ScalarLC(0, [("b", Fraction(1, 2))])
    assert parse_scalar("1 - 2*b + 1/3", ("b",)) == ScalarLC(Fraction(4, 3), [("b", -2)])


def test_parse_scalar_rejects_undeclared_and_garbage():
    with pytest.raises(ValueError):
        parse_scalar("b", ())
    with pytest.raises(ValueError):
        parse_scalar("2 +")
    with pytest.raises(ValueError):
        parse_scalar("")


def test_parse_rational():
    assert parse_rational("-5/7") == Fraction(-5, 7)
    with pytest.raises(ValueError):
        parse_rational("x")


@pytest.mark.parametrize("text", ["1e5", "2E-3", "1e400"])
def test_parse_rational_refuses_exponents(text):
    # an exponent builds its power of ten before any check, so "1e999999999"
    # would take minutes and gigabytes
    with pytest.raises(ValueError, match="not a rational literal"):
        parse_rational(text)
    assert parse_rational("0.25") == Fraction(1, 4)


def test_str_round_trips_through_parser():
    rng = random.Random(3)
    for _ in range(100):
        lc = ScalarLC(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            [(s, Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for s in ("b", "c")],
        )
        assert parse_scalar(str(lc), ("b", "c")) == lc
