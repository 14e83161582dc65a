"""Dense exact linear algebra over the rationals.

Vectors are lists of ``Fraction``.  A subspace is presented by the
reduced row echelon form of a spanning set; that form is canonical, so
two spans are equal exactly when their echelon forms are equal lists.

:class:`EchelonAccumulator` is the one elimination loop: ``rref``,
ranks, kernels and solving all feed rows to it.  Its rows stay in
reduced echelon form after every insertion, so they depend only on the
span, never on the order or scaling of the inserted rows, which makes
every basis emitted here byte-reproducible.

Row convention: a matrix is a list of row vectors.  When a matrix
encodes a linear map, row ``j`` holds the coordinates of the image of
the j-th domain basis vector, so the map sends coordinates ``x`` to
``x . rows``; kernels of maps are computed accordingly.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction


def zeros(m: int) -> list[Fraction]:
    return [Fraction(0)] * m


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    acc = EchelonAccumulator()
    for row in rows:
        acc.add(row)
    return acc.rows, acc.pivots


def echelon_basis(vectors: list[list[Fraction]]) -> list[list[Fraction]]:
    """Canonical basis (reduced echelon rows) of the span of ``vectors``."""
    return rref(vectors)[0]


def rank(rows: list[list[Fraction]]) -> int:
    return len(rref(rows)[0])


def map_kernel(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of ``{x : x . rows = 0}`` for a map given by image rows.

    One vector per free column of the reduced echelon form of the
    transposed rows, so the basis is canonical.
    """
    if not rows:
        return []
    red, pivots = rref([list(col) for col in zip(*rows)])
    pivot_set = set(pivots)
    basis = []
    for free in range(len(rows)):
        if free in pivot_set:
            continue
        v = zeros(len(rows))
        v[free] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis


def solve_combination(rows: list[list[Fraction]], target: list[Fraction]):
    """Coefficients ``c`` with ``sum(c_i * rows[i]) == target``, or None.

    Free coefficients are set to zero, which makes the returned solution
    the deterministic representative used throughout for "least" choices.
    """
    if not rows:
        return [] if all(x == 0 for x in target) else None
    red, pivots = rref([list(col) + [t] for col, t in zip(zip(*rows), target)])
    coeffs = zeros(len(rows))
    for row, p in zip(red, pivots):
        if p == len(rows):
            return None
        coeffs[p] = row[-1]
    return coeffs


def matrix_mul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """Row-convention composition: (x . a) . b has matrix a . b."""
    if not a or not b:
        return [[] for _ in a]
    ncols = len(b[0])
    out = []
    for row in a:
        acc = zeros(ncols)
        for x, brow in zip(row, b):
            if x != 0:
                for c in range(ncols):
                    if brow[c] != 0:
                        acc[c] += x * brow[c]
        out.append(acc)
    return out


class EchelonAccumulator:
    """Incremental Gauss-Jordan elimination.

    ``rows`` is the reduced row echelon form of the span of every row
    added so far: rows are sorted by pivot column, each pivot entry is 1
    and every other row is zero in that column.
    """

    def __init__(self):
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def residue(self, v: list[Fraction]) -> list[Fraction]:
        """``v`` minus its span component: the representative zero at every pivot."""
        out = list(v)
        for row, p in zip(self.rows, self.pivots):
            f = out[p]
            if f != 0:
                out[p:] = [a - f * b for a, b in zip(out[p:], row[p:])]
        return out

    def add(self, v: list[Fraction]) -> bool:
        """Insert ``v``; True when it enlarged the span."""
        res = self.residue(v)
        for c, x in enumerate(res):
            if x != 0:
                break
        else:
            return False
        new = [a / x for a in res[c:]]
        for row in self.rows:
            f = row[c]
            if f != 0:
                row[c:] = [a - f * b for a, b in zip(row[c:], new)]
        at = bisect(self.pivots, c)
        self.rows.insert(at, zeros(c) + new)
        self.pivots.insert(at, c)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)
