"""Dense exact linear algebra over the rationals.

Vectors are lists of ``Fraction``.  A subspace is presented by the
reduced row echelon form of a spanning set; that form is canonical, so
two spans are equal exactly when their echelon forms are equal lists.
Pivot selection is deterministic (leftmost column, topmost row), which
makes every basis emitted here byte-reproducible.

Row convention: a matrix is a list of row vectors.  When a matrix
encodes a linear map, row ``j`` holds the coordinates of the image of
the j-th domain basis vector, so the map sends coordinates ``x`` to
``x . rows``; kernels of maps are computed accordingly.
"""

from __future__ import annotations

from fractions import Fraction

Vec = "list[Fraction]"


def zeros(m: int) -> list[Fraction]:
    return [Fraction(0)] * m


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(row) for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def echelon_basis(vectors: list[list[Fraction]]) -> list[list[Fraction]]:
    """Canonical basis (reduced echelon rows) of the span of ``vectors``."""
    return rref(vectors)[0]


def rank(rows: list[list[Fraction]]) -> int:
    return len(rref(rows)[0])


def transpose(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    return [[row[c] for row in rows] for c in range(ncols)]


def right_kernel(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Canonical basis of ``{x : rows . x = 0}`` (one vector per free column)."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = zeros(ncols)
        v[free] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis


def map_kernel(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of ``{x : x . rows = 0}`` for a map given by image rows."""
    if not rows:
        return []
    return right_kernel(transpose(rows, len(rows[0])), len(rows))


def solve_combination(rows: list[list[Fraction]], target: list[Fraction]):
    """Coefficients ``c`` with ``sum(c_i * rows[i]) == target``, or None.

    Free coefficients are set to zero, which makes the returned solution
    the deterministic representative used throughout for "least" choices.
    """
    if not rows:
        return [] if all(x == 0 for x in target) else None
    ncols = len(rows[0])
    aug = transpose(rows, ncols)
    for r, t in zip(aug, target):
        r.append(t)
    red, pivots = rref(aug)
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
    """Incremental Gauss elimination for rank/membership bookkeeping.

    Rows are kept normalized with distinct pivot columns but are not
    inter-reduced; use :func:`echelon_basis` where a canonical basis is
    required.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def residue(self, v: list[Fraction]) -> list[Fraction]:
        out = list(v)
        for row, p in zip(self.rows, self.pivots):
            if out[p] != 0:
                f = out[p]
                out = [a - f * b for a, b in zip(out, row)]
        return out

    def add(self, v: list[Fraction]) -> bool:
        """Insert ``v``; True when it enlarged the span."""
        res = self.residue(v)
        for c in range(self.ncols):
            if res[c] != 0:
                inv = Fraction(1) / res[c]
                row = [x * inv for x in res]
                at = 0
                while at < len(self.pivots) and self.pivots[at] < c:
                    at += 1
                self.rows.insert(at, row)
                self.pivots.insert(at, c)
                return True
        return False

    def contains(self, v: list[Fraction]) -> bool:
        return all(x == 0 for x in self.residue(v))

    @property
    def rank(self) -> int:
        return len(self.rows)
