"""Sparse exact linear algebra over the rationals.

A vector is a sparse row: a dict mapping column to a nonzero rational,
stored by the one coefficient rule of :mod:`.scalars` (an ``int`` where it
is integral, a ``Fraction`` otherwise; the two compare and hash alike).
A column is any hashable key in a total order; the code only compares
columns (``min``, ``sorted``, ``bisect``), so relabelling the columns by
an order-preserving map relabels every result the same way.  Callers use
the monomials themselves as columns: exterior index tuples and model
monomials of one degree, which ``_multiply_into`` multiplies as rows,
given the product of two monomials.  A row never stores a zero, so its
length is its number of nonzeros and the empty dict is the zero vector;
column order inside the dict carries no meaning.  A subspace is presented
by the reduced row echelon form of a spanning set; that form is
canonical, so two spans are equal exactly when their echelon forms are
equal lists.

:class:`EchelonAccumulator` is the one elimination loop: ``rref``,
ranks, kernels and solving all feed rows to it.  Its rows stay in
reduced echelon form after every insertion, so they depend only on the
span, never on the order or scaling of the inserted rows, which makes
every basis emitted here byte-reproducible.  Every step touches only
nonzero entries, and clearing a new pivot column touches only the holder
rows, the stored rows that are nonzero in that column.  Every entry it
takes in or stores follows that rule, so integer input (the shift images,
and the realified fiber rows of specs outside the modification hypothesis)
is eliminated in ``int`` arithmetic, with no gcd per operation; a new row
is negated when its lead is -1 and divided only when its lead is not +-1.

Row convention: a matrix is a list of row vectors.  When a matrix
encodes a linear map, row ``j`` holds the coordinates of the image of
the j-th domain basis vector, so the map sends coordinates ``x`` to
``x . rows``; kernels of maps are computed accordingly, and a kernel or
solution vector is keyed by row number ``j``.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction

from .scalars import _canonical

Row = "dict[Hashable, int | Fraction]"


def rref(rows: list[Row]) -> tuple[list[Row], list]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    acc = EchelonAccumulator()
    for row in rows:
        acc.add(row)
    return acc.rows, acc.pivots


def echelon_basis(vectors: list[Row]) -> list[Row]:
    """Canonical basis (reduced echelon rows) of the span of ``vectors``."""
    return rref(vectors)[0]


def _transpose(rows: list[Row]) -> list[tuple]:
    """The nonzero columns of ``rows`` as (column, sparse row) pairs in column order."""
    cols: dict = {}
    for j, row in enumerate(rows):
        for c, x in row.items():
            col = cols.get(c)
            if col is None:
                cols[c] = {j: x}
            else:
                col[j] = x
    return sorted(cols.items())


def column_kernel_and_pivots(columns: list[tuple], size: int) -> tuple[list[Row], list]:
    """``map_kernel`` of ``size`` rows given as sorted (column, entries by row)
    pairs, together with the pivot columns of the rows' ``rref``.

    One elimination serves both: a column is a pivot column exactly when it
    is independent of the columns before it, that is when adding it, as a
    transposed row, to an accumulator fed in column order enlarges the span.
    The kernel has one vector per free column of the reduced echelon form of
    the transposed rows, so the basis is canonical.
    """
    acc = EchelonAccumulator()
    pivots = [c for c, col in columns if acc.add(col)]
    pivot_set = set(acc.pivots)
    kernel = {free: {free: 1} for free in range(size) if free not in pivot_set}
    # a reduced row is zero at every other pivot, so its other entries sit in free columns
    for row, p in zip(acc.rows, acc.pivots):
        for c, x in row.items():
            if c != p:
                kernel[c][p] = -x
    return list(kernel.values()), pivots


def map_kernel(rows: list[Row]) -> list[Row]:
    """Basis of ``{x : x . rows = 0}`` for a map given by image rows."""
    return column_kernel_and_pivots(_transpose(rows), len(rows))[0]


def matrix_mul(a: list[Row], b) -> list[Row]:
    """Row-convention composition: (x . a) . b has matrix a . b.

    ``b`` maps each column of ``a`` to a row: a list for row-number
    columns, a dict for any other keys.  Entries are ``int`` when integral.
    """
    out = []
    for row in a:
        acc: Row = {}
        for j, x in row.items():
            for c, y in b[j].items():
                z = acc.get(c, 0) + x * y
                if z:
                    acc[c] = _canonical(z)
                else:
                    acc.pop(c, None)
        out.append(acc)
    return out


def _multiply_into(out: dict, p: dict, q: dict, merge) -> dict:
    """Add the product of the sparse rows ``p`` and ``q`` to ``out``; ``merge``
    multiplies two keys into (sign, key), or None when the product is zero."""
    for u, cu in p.items():
        for v, cv in q.items():
            merged = merge(u, v)
            if merged is None:
                continue
            sign, key = merged
            total = out.get(key, 0) + (cu * cv if sign > 0 else -cu * cv)
            if total:
                out[key] = _canonical(total)
            else:
                out.pop(key, None)  # test-built rows may carry zero coefficients
    return out


class EchelonAccumulator:
    """Incremental sparse Gauss-Jordan elimination.

    ``rows`` is the reduced row echelon form of the span of every row
    added so far: rows are sorted by pivot column, each pivot entry is 1
    and every other row is zero in that column.  A holder index maps
    each non-pivot column to the pivots of the rows nonzero there, so
    clearing a new pivot column touches only the rows that hold it.
    """

    def __init__(self):
        self.rows: list[Row] = []
        self.pivots: list = []
        self._by_pivot: dict = {}
        self._holders: dict = {}  # non-pivot column -> pivots of the rows nonzero there

    def residue(self, v: Row) -> Row:
        """``v`` minus its span component: the representative zero at every pivot.

        Each row is zero at every other pivot, so the component along the
        row of pivot ``p`` is ``v[p]`` times that row.
        """
        out = {c: _canonical(x) for c, x in v.items() if x}
        by_pivot = self._by_pivot
        for p, f in list(out.items()):
            row = by_pivot.get(p)
            if row is None:
                continue
            for c, x in row.items():
                y = out.get(c)
                y = -f * x if y is None else y - f * x
                if y:
                    # _canonical(y) inlined, as in add: a call here slows s8 at K=7 by ~10%
                    out[c] = y if type(y) is int or y.denominator != 1 else y.numerator
                else:
                    del out[c]
        return out

    def add(self, v: Row) -> bool:
        """Insert ``v``; True when it enlarged the span."""
        res = self.residue(v)
        if not res:
            return False
        c = min(res)
        lead = res[c]
        if lead == 1:
            new = res
        elif lead == -1:
            new = {k: -x for k, x in res.items()}
        else:
            inverse = 1 / Fraction(lead)
            new = {k: _canonical(x * inverse) for k, x in res.items()}
        new[c] = 1
        holders = self._holders
        # the new row is zero at every old pivot, so clearing column c only
        # moves entries of the holder rows among non-pivot columns
        for p in holders.pop(c, ()):
            row = self._by_pivot[p]
            f = row[c]
            for k, x in new.items():
                y = row.get(k)
                if y is None:
                    y = -f * x
                    holders.setdefault(k, set()).add(p)
                else:
                    y -= f * x
                    if not y:
                        del row[k]
                        if k != c:
                            holders[k].discard(p)
                        continue
                # _canonical(y) inlined, as in residue
                row[k] = y if type(y) is int or y.denominator != 1 else y.numerator
        for k in new:
            if k != c:
                holders.setdefault(k, set()).add(c)
        at = bisect(self.pivots, c)
        self.rows.insert(at, new)
        self.pivots.insert(at, c)
        self._by_pivot[c] = new
        return True

    @classmethod
    def of_rows(cls, rows: list[Row]) -> EchelonAccumulator:
        """The accumulator of ``rows``.  Unit rows with distinct keys, each scaled
        to 1 and sorted by key, already are the reduced echelon form: none is added."""
        acc = cls()
        keys = {key for row in rows if len(row) == 1 for key in row}
        if len(keys) < len(rows):
            for row in rows:
                acc.add(row)
        else:
            acc.pivots = sorted(keys)
            acc.rows = [{key: 1} for key in acc.pivots]
            acc._by_pivot = dict(zip(acc.pivots, acc.rows))
        return acc

    @property
    def rank(self) -> int:
        return len(self.rows)
