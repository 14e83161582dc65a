"""Exact linear algebra: canonical echelon forms, kernels, solving."""

import random
from fractions import Fraction

import pytest

from solvform.linalg import (
    EchelonAccumulator,
    echelon_basis,
    map_kernel,
    matrix_mul,
    rank,
    rref,
    solve_combination,
)


def _random_matrix(rng, rows, cols):
    return [
        [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(cols)]
        for _ in range(rows)
    ]


def _dot(vec, rows):
    out = [Fraction(0)] * (len(rows[0]) if rows else 0)
    for c, row in zip(vec, rows):
        for i, x in enumerate(row):
            out[i] += c * x
    return out


def test_rref_canonical_and_idempotent():
    rng = random.Random(11)
    for _ in range(100):
        mat = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        red, pivots = rref(mat)
        again, pivots2 = rref(red)
        assert red == again and pivots == pivots2
        for row, p in zip(red, pivots):
            assert row[p] == 1
            assert all(other[p] == 0 for other in red if other is not row)


def test_echelon_basis_is_span_invariant():
    rng = random.Random(12)
    for _ in range(100):
        mat = _random_matrix(rng, 4, 5)
        shuffled = mat[:]
        rng.shuffle(shuffled)
        scaled = [[Fraction(2) * x for x in row] for row in mat]
        assert echelon_basis(mat) == echelon_basis(shuffled) == echelon_basis(scaled)


def test_right_kernel_annihilates():
    # The right kernel {v : M v = 0} is the map kernel of the columns of M.
    rng = random.Random(13)
    for _ in range(100):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        mat = _random_matrix(rng, rows, cols)
        kern = map_kernel([list(col) for col in zip(*mat)])
        assert len(kern) == cols - rank(mat)
        for vec in kern:
            for row in mat:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_map_kernel_annihilates_rows():
    rng = random.Random(14)
    for _ in range(100):
        mat = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 4))
        kern = map_kernel(mat)
        assert len(kern) == len(mat) - rank(mat)
        for vec in kern:
            assert all(x == 0 for x in _dot(vec, mat))


def test_rref_and_map_kernel_match_sympy():
    sympy = pytest.importorskip("sympy")

    def to_fractions(rows):
        return [[Fraction(int(x.p), int(x.q)) for x in row] for row in rows]

    rng = random.Random(13)
    for _ in range(300):
        mat = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        sym = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in mat])
        red, pivots = sym.rref()
        expected = to_fractions(red.tolist()[: len(pivots)])
        assert rref(mat) == (expected, list(pivots))
        assert map_kernel(mat) == to_fractions(v.T.tolist()[0] for v in sym.T.nullspace())


def test_solve_combination_and_consistency():
    rng = random.Random(15)
    for _ in range(100):
        mat = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in mat]
        target = _dot(coeffs, mat)
        got = solve_combination(mat, target)
        assert got is not None
        assert _dot(got, mat) == target


def test_solve_combination_reports_inconsistent():
    rows = [[Fraction(1), Fraction(0)]]
    assert solve_combination(rows, [Fraction(0), Fraction(1)]) is None


def test_matrix_mul_matches_composition():
    rng = random.Random(16)
    for _ in range(50):
        a = _random_matrix(rng, 3, 4)
        b = _random_matrix(rng, 4, 2)
        ab = matrix_mul(a, b)
        x = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
        assert _dot(x, ab) == _dot(_dot(x, a), b)


def test_echelon_accumulator_tracks_rank_and_membership():
    rng = random.Random(17)
    for _ in range(50):
        mat = _random_matrix(rng, 6, 4)
        acc = EchelonAccumulator()
        for row in mat:
            acc.add(row)
        assert acc.rank == rank(mat)
        combo = _dot([Fraction(rng.randint(-2, 2)) for _ in mat], mat)
        assert all(x == 0 for x in acc.residue(combo))


def test_echelon_accumulator_rows_stay_reduced():
    rng = random.Random(18)
    for _ in range(300):
        cols = rng.randint(1, 6)
        mat = _random_matrix(rng, rng.randint(1, 7), cols)
        mat += [_dot([Fraction(rng.randint(-2, 2)) for _ in mat], mat)]
        rng.shuffle(mat)
        acc = EchelonAccumulator()
        for i, row in enumerate(mat):
            grew = acc.add(row)
            assert grew == (rank(mat[: i + 1]) > rank(mat[:i]))
            assert (acc.rows, acc.pivots) == rref(mat[: i + 1])
            assert acc.rows == echelon_basis(list(reversed(mat[: i + 1])))
