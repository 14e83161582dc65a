"""Exact sparse linear algebra: canonical echelon forms, kernels, solving.

The random matrices are drawn dense and handed to the kernel through
``_sparse``; results are compared densely through ``_dense``.
"""

import random
from fractions import Fraction

import pytest

from conftest import rank, solve_combination
from solvform.linalg import (
    EchelonAccumulator,
    _transpose,
    column_kernel_and_pivots,
    echelon_basis,
    map_kernel,
    matrix_mul,
    rref,
)


def _random_matrix(rng, rows, cols):
    return [
        [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(cols)]
        for _ in range(rows)
    ]


def _kernel_and_pivots(rows):
    """The kernel and pivots of one elimination of the transposed rows, as the shift slices take them."""
    return column_kernel_and_pivots(_transpose(rows), len(rows))


def _sparse(mat):
    return [{c: Fraction(x) for c, x in enumerate(row) if x != 0} for row in mat]


def _dense(vec, n):
    out = [Fraction(0)] * n
    for c, x in vec.items():
        out[c] = x
    return out


def _dot(vec, rows):
    out = [Fraction(0)] * (len(rows[0]) if rows else 0)
    for c, row in zip(vec, rows):
        for i, x in enumerate(row):
            out[i] += c * x
    return out


def test_rref_canonical_and_idempotent():
    rng = random.Random(11)
    for _ in range(100):
        mat = _sparse(_random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)))
        red, pivots = rref(mat)
        again, pivots2 = rref(red)
        assert red == again and pivots == pivots2
        for row, p in zip(red, pivots):
            assert row[p] == 1
            assert all(p not in other for other in red if other is not row)


def test_echelon_basis_is_span_invariant():
    rng = random.Random(12)
    for _ in range(100):
        mat = _random_matrix(rng, 4, 5)
        shuffled = mat[:]
        rng.shuffle(shuffled)
        scaled = [[Fraction(2) * x for x in row] for row in mat]
        assert (
            echelon_basis(_sparse(mat))
            == echelon_basis(_sparse(shuffled))
            == echelon_basis(_sparse(scaled))
        )


def test_right_kernel_annihilates():
    # The right kernel {v : M v = 0} is the map kernel of the columns of M.
    rng = random.Random(13)
    for _ in range(100):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        mat = _random_matrix(rng, rows, cols)
        kern = map_kernel(_sparse(zip(*mat)))
        assert len(kern) == cols - rank(_sparse(mat))
        for vec in (_dense(v, cols) for v in kern):
            for row in mat:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_map_kernel_annihilates_rows():
    rng = random.Random(14)
    for _ in range(100):
        mat = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 4))
        kern = map_kernel(_sparse(mat))
        assert len(kern) == len(mat) - rank(_sparse(mat))
        for vec in kern:
            assert all(x == 0 for x in _dot(_dense(vec, len(mat)), mat))


def _sympy_reference(sympy, mat):
    """(reduced rows, pivots, map kernel) of a dense matrix from sympy, as sparse rows."""

    def to_sparse(rows):
        return _sparse([[Fraction(int(x.p), int(x.q)) for x in row] for row in rows])

    sym = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in mat])
    red, pivots = sym.rref()
    kernel = to_sparse(v.T.tolist()[0] for v in sym.T.nullspace())
    return to_sparse(red.tolist()[: len(pivots)]), list(pivots), kernel


def _check_against_sympy(sympy, mat):
    red, pivots, kernel = _sympy_reference(sympy, mat)
    assert rref(_sparse(mat)) == (red, pivots)
    assert map_kernel(_sparse(mat)) == kernel
    assert _kernel_and_pivots(_sparse(mat)) == (kernel, pivots)


def test_rref_and_map_kernel_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(13)
    for _ in range(300):
        _check_against_sympy(sympy, _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)))


def test_solve_combination_and_consistency():
    rng = random.Random(15)
    for _ in range(100):
        mat = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in mat]
        target = _dot(coeffs, mat)
        got, free = solve_combination(_sparse(mat), _sparse([target])[0])
        assert got is not None
        assert _dot(_dense(got, len(mat)), mat) == target
        # free coefficients are zero: the solution lives on the pivot rows
        pivots = rref(_sparse(list(zip(*mat))))[1]
        assert set(got) <= set(pivots)
        assert free == len(map_kernel(_sparse(mat)))


def test_solve_combination_reports_inconsistent():
    rows = _sparse([[Fraction(1), Fraction(0)]])
    assert solve_combination(rows, {1: Fraction(1)}) == (None, 0)
    rows.append({})
    assert solve_combination(rows, {1: Fraction(1)}) == (None, 1)
    assert solve_combination(rows, {0: Fraction(2)}) == ({0: Fraction(2)}, 1)


def test_matrix_mul_matches_composition():
    rng = random.Random(16)
    for _ in range(50):
        a = _random_matrix(rng, 3, 4)
        b = _random_matrix(rng, 4, 2)
        ab = [_dense(row, 2) for row in matrix_mul(_sparse(a), _sparse(b))]
        x = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
        assert _dot(x, ab) == _dot(_dot(x, a), b)


def test_echelon_accumulator_tracks_rank_and_membership():
    rng = random.Random(17)
    for _ in range(50):
        mat = _random_matrix(rng, 6, 4)
        acc = EchelonAccumulator()
        for row in _sparse(mat):
            acc.add(row)
        assert acc.rank == rank(_sparse(mat))
        combo = _dot([Fraction(rng.randint(-2, 2)) for _ in mat], mat)
        assert acc.residue(_sparse([combo])[0]) == {}


def test_echelon_accumulator_rows_stay_reduced():
    rng = random.Random(18)
    for _ in range(300):
        cols = rng.randint(1, 6)
        mat = _random_matrix(rng, rng.randint(1, 7), cols)
        mat += [_dot([Fraction(rng.randint(-2, 2)) for _ in mat], mat)]
        rng.shuffle(mat)
        mat = _sparse(mat)
        acc = EchelonAccumulator()
        for i, row in enumerate(mat):
            grew = acc.add(row)
            assert grew == (rank(mat[: i + 1]) > rank(mat[:i]))
            assert (acc.rows, acc.pivots) == rref(mat[: i + 1])
            assert acc.rows == echelon_basis(list(reversed(mat[: i + 1])))


def _sparse_random_matrix(rng, rows, cols, density=0.15):
    return [
        [
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            if rng.random() < density
            else Fraction(0)
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


def test_stored_rows_never_hold_a_zero():
    rng = random.Random(19)
    for _ in range(200):
        mat = _sparse(_random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8)))
        acc = EchelonAccumulator()
        for row in mat:
            acc.add(row)
            assert all(x != 0 for stored in acc.rows for x in stored.values())
        for vec in map_kernel(mat) + echelon_basis(mat):
            assert all(x != 0 for x in vec.values())
        coeffs, _ = solve_combination(mat, acc.rows[0] if acc.rows else {})
        assert all(x != 0 for x in coeffs.values())
        for row in matrix_mul(mat, _sparse(_random_matrix(rng, 8, 3))):
            assert all(x != 0 for x in row.values())


def test_add_of_zero_row_returns_false():
    acc = EchelonAccumulator()
    assert acc.add({}) is False
    assert acc.add({0: Fraction(0), 3: Fraction(0)}) is False
    assert (acc.rows, acc.pivots) == ([], [])
    assert acc.add({1: Fraction(2)}) is True
    assert acc.add({}) is False
    assert acc.add({2: Fraction(0)}) is False
    assert (acc.rows, acc.pivots) == ([{1: Fraction(1)}], [1])


def test_residue_is_zero_at_every_pivot():
    rng = random.Random(20)
    for _ in range(200):
        cols = rng.randint(1, 9)
        acc = EchelonAccumulator()
        for row in _sparse(_sparse_random_matrix(rng, rng.randint(1, 9), cols, density=0.3)):
            acc.add(row)
        for vec in _sparse(_random_matrix(rng, 5, cols)):
            res = acc.residue(vec)
            assert not set(res) & set(acc.pivots)
            assert all(x != 0 for x in res.values())
            # v and its residue differ by an element of the span
            diff = {c: vec.get(c, 0) - res.get(c, 0) for c in set(vec) | set(res)}
            assert acc.residue({c: x for c, x in diff.items() if x}) == {}


@pytest.mark.parametrize("shape", ["wide", "tall"])
def test_sparse_rref_and_map_kernel_match_sympy(shape):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(21 if shape == "wide" else 22)
    for _ in range(60):
        small, large = rng.randint(2, 8), rng.randint(9, 20)
        rows, cols = (small, large) if shape == "wide" else (large, small)
        _check_against_sympy(sympy, _sparse_random_matrix(rng, rows, cols))


def test_results_follow_an_order_preserving_relabelling_of_columns():
    # columns only need a total order: relabel the integer columns by
    # sorted tuples of mixed lengths and every pivot, row and target
    # relabels the same way, while row-indexed kernels and solutions
    # stay exactly as they were
    rng = random.Random(23)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        mat = _sparse(_sparse_random_matrix(rng, rows, cols, density=0.4))
        pool = {tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 3))) for _ in range(40)}
        labels = sorted(rng.sample(sorted(pool), cols))

        def relabel(vec):
            return {labels[c]: x for c, x in vec.items()}

        tuple_mat = [relabel(row) for row in mat]
        red, pivots = rref(mat)
        assert rref(tuple_mat) == ([relabel(row) for row in red], [labels[p] for p in pivots])
        kernel, pivots = _kernel_and_pivots(mat)
        assert _kernel_and_pivots(tuple_mat) == (kernel, [labels[p] for p in pivots])
        assert map_kernel(tuple_mat) == kernel
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in mat]
        target = _sparse([_dot(coeffs, [_dense(row, cols) for row in mat])])[0]
        assert solve_combination(tuple_mat, relabel(target)) == solve_combination(mat, target)
        off_span = {c: Fraction(1) for c in range(cols)}
        assert solve_combination(tuple_mat, relabel(off_span)) == solve_combination(mat, off_span)
        # a square map composes through a dict keyed by the new columns
        if rows == cols:
            by_label = {labels[j]: row for j, row in enumerate(tuple_mat)}
            square = [relabel(row) for row in matrix_mul(mat, mat)]
            assert matrix_mul(tuple_mat, by_label) == square


def test_clearing_a_pivot_column_can_cancel_other_entries():
    one = Fraction(1)
    acc = EchelonAccumulator()
    acc.add({0: one, 1: one, 2: one})
    # clearing column 1 from the first row cancels its column-2 entry too,
    # so that row no longer holds column 2
    acc.add({1: one, 2: one})
    assert acc.rows == [{0: one}, {1: one, 2: one}]
    # the next pivot is that cancelled column: only the second row is cleared
    assert acc.add({2: one, 3: one})
    assert (acc.rows, acc.pivots) == ([{0: one}, {1: one, 3: -one}, {2: one, 3: one}], [0, 1, 2])


def _reference_rref(mat):
    """Textbook dense Gauss-Jordan elimination: (nonzero rows, pivot columns)."""
    rows = [list(row) for row in mat]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pick = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _reference_map_kernel(mat):
    """One vector per free column of the reduced transpose, as ``map_kernel`` documents."""
    red, pivots = _reference_rref([list(col) for col in zip(*mat)])
    kernel = []
    for free in range(len(mat)):
        if free in pivots:
            continue
        vec = [Fraction(0)] * len(mat)
        vec[free] = Fraction(1)
        for row, p in zip(red, pivots):
            vec[p] = -row[free]
        kernel.append(vec)
    return kernel


def _cancelling_matrix(rng):
    """Sparse +-1 rows plus sums and differences of them, shuffled: eliminating
    it cancels many entries of the stored rows."""
    rows, cols = rng.randint(2, 9), rng.randint(2, 12)
    mat = [
        [Fraction(rng.choice([-1, 1])) if rng.random() < 0.3 else Fraction(0) for _ in range(cols)]
        for _ in range(rows)
    ]
    for _ in range(rng.randint(1, 5)):
        a, b = rng.choice(mat), rng.choice(mat)
        sign = rng.choice([-1, 1])
        mat.append([x + sign * y for x, y in zip(a, b)])
    rng.shuffle(mat)
    return mat


def test_rref_and_map_kernel_match_reference_elimination_under_cancellation():
    rng = random.Random(24)
    for _ in range(250):
        mat = _cancelling_matrix(rng)
        red, pivots = _reference_rref(mat)
        assert rref(_sparse(mat)) == (_sparse(red), pivots)
        assert map_kernel(_sparse(mat)) == _sparse(_reference_map_kernel(mat))


def test_reduced_rows_added_afresh_continue_like_the_accumulator_that_built_them():
    # each reduced row is zero at the other pivots, so adding them to a fresh
    # accumulator reduces nothing and gives them back
    rng = random.Random(25)
    for _ in range(200):
        mat = _sparse(_cancelling_matrix(rng))
        cut = rng.randint(0, len(mat))
        red, pivots = rref(mat[:cut])
        acc = EchelonAccumulator()
        for row in red:
            acc.add(row)
        assert (acc.rows, acc.pivots) == (red, pivots)
        for row in mat[:cut]:
            assert acc.residue(row) == {}
        for row in mat[cut:]:
            acc.add(row)
        assert (acc.rows, acc.pivots) == rref(mat)
        assert red == rref(mat[:cut])[0]  # the rows handed in were copied


def _integral_or_fraction(rows):
    """Every entry is an ``int`` exactly when it is integral."""
    return all(
        type(x) is int if x == int(x) else type(x) is Fraction for row in rows for x in row.values()
    )


def _leading_two_or_three_matrix(rng):
    """Integer rows that lead with +-2 or +-3, plus integer combinations of them:
    dividing by the leads makes non-integral entries, and clearing columns
    cancels many of them back to integers."""
    rows, cols = rng.randint(1, 6), rng.randint(2, 8)
    mat = []
    for _ in range(rows):
        lead = rng.randint(0, cols - 1)
        row = [0] * lead + [rng.choice([-3, -2, 2, 3])]
        row += [rng.choice([-3, -2, -1, 0, 0, 1, 2, 3]) for _ in range(cols - lead - 1)]
        mat.append(row)
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(mat), rng.choice(mat)
        f, g = rng.choice([-2, -1, 1, 2]), rng.choice([-3, 1, 3])
        mat.append([f * x + g * y for x, y in zip(a, b)])
    rng.shuffle(mat)
    return mat


def _input_forms(rng, mat):
    """The same sparse matrix with ``int``, ``Fraction`` and mixed entries."""
    as_int = [{c: x for c, x in enumerate(row) if x} for row in mat]
    as_fraction = [{c: Fraction(x) for c, x in row.items()} for row in as_int]
    mixed = [{c: rng.choice([x, Fraction(x)]) for c, x in row.items()} for row in as_int]
    return {"int": as_int, "fraction": as_fraction, "mixed": mixed}


def test_integer_and_fraction_inputs_agree_with_fraction_only_elimination():
    rng = random.Random(26)
    saw_fraction = saw_integral = 0
    for _ in range(300):
        mat = _leading_two_or_three_matrix(rng)
        dense = [[Fraction(x) for x in row] for row in mat]
        red, pivots = _reference_rref(dense)
        kernel = _sparse(_reference_map_kernel(dense))
        coeffs = [rng.randint(-2, 2) for _ in mat]
        target = {c: x for c, x in enumerate(_dot(coeffs, dense)) if x}
        for rows in _input_forms(rng, mat).values():
            got_rows, got_pivots = rref(rows)
            assert (got_rows, got_pivots) == (_sparse(red), pivots)
            got_kernel = map_kernel(rows)
            assert got_kernel == kernel
            assert _kernel_and_pivots(rows) == (kernel, pivots)
            solution, free = solve_combination(rows, target)
            assert _dot(_dense(solution, len(mat)), dense) == _dot(coeffs, dense)
            assert free == len(kernel)
            assert _integral_or_fraction(got_rows + got_kernel + [solution])
        # the drawn rows lead with +-2 or +-3, so an all-integer result went through division
        if any(type(x) is Fraction for row in got_rows for x in row.values()):
            saw_fraction += 1
        else:
            saw_integral += 1
    assert saw_fraction > 30 and saw_integral > 30


def test_integer_and_mixed_inputs_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(27)
    for _ in range(150):
        mat = _leading_two_or_three_matrix(rng)
        red, pivots, kernel = _sympy_reference(sympy, [[Fraction(x) for x in row] for row in mat])
        for rows in _input_forms(rng, mat).values():
            assert rref(rows) == (red, pivots)
            assert map_kernel(rows) == kernel


def test_entries_cancelled_back_to_integers_are_stored_as_ints():
    acc = EchelonAccumulator()
    acc.add({0: 2, 1: 1, 2: 1})  # lead 2: the row becomes 1, 1/2, 1/2
    assert acc.rows == [{0: 1, 1: Fraction(1, 2), 2: Fraction(1, 2)}]
    assert type(acc.rows[0][0]) is int and type(acc.rows[0][1]) is Fraction
    # clearing column 1 leaves 1/2 + 1/2 in column 2, an integer again
    acc.add({1: Fraction(3), 2: Fraction(-3)})
    assert acc.rows == [{0: 1, 2: 1}, {1: 1, 2: -1}]
    assert all(type(x) is int for row in acc.rows for x in row.values())
    # a lead of -1 negates the row without dividing
    acc.add({3: Fraction(-1), 4: Fraction(4, 2)})
    assert acc.rows[2] == {3: 1, 4: -2} and all(type(x) is int for x in acc.rows[2].values())
    res = acc.residue({0: Fraction(6, 3), 4: Fraction(1, 3)})
    assert res == {2: -2, 4: Fraction(1, 3)} and type(res[2]) is int
    copied = EchelonAccumulator()
    copied.add({0: Fraction(1), 5: Fraction(-4, 2)})
    assert copied.rows == [{0: 1, 5: -2}] and all(type(x) is int for x in copied.rows[0].values())
