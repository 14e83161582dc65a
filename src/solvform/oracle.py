"""Brute-force cross-check of the unipotent-monodromy submodule.

:func:`nilpotent_submodule_oracle` ignores weights entirely: it builds the
monodromy as the exterior power of the exponential of the shift part
(exact because the shift is nilpotent) and iterates exact kernels of
(monodromy - identity).  It is available only when the semisimple part is
trivial (:func:`.monodromy.oracle_applicable`), which is exactly when
that matrix is rational, and there it must span the same subspace as
:func:`.monodromy.nilpotent_submodule` in every degree.

No report runs this route: the tests and the benchmark's correctness gate
do.  So it lives apart from :mod:`.monodromy`, and a command line run
does not compile it; ``monodromy.nilpotent_submodule_oracle`` and
``monodromy.spans_match`` still resolve, by importing this module on
first use.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import OracleUnavailable
from .exterior import LinearEndo, Multivector, coordinate_vector, derivation_apply
from .linalg import echelon_basis, map_kernel, matrix_mul
from .monodromy import oracle_applicable
from .spectral import AlmostAbelianSpec, nilpotent_log


def monomials(n: int, k: int) -> list[tuple[int, ...]]:
    """Degree-k index tuples in lexicographic order."""
    if k < 0 or k > n:
        return []
    return list(combinations(range(1, n + 1), k))


def algebra_map_apply(endo: LinearEndo, x: Multivector) -> Multivector:
    """Multiplicative (exterior power) extension of ``endo`` applied to ``x``."""
    if endo.n != x.n:
        raise ValueError("endomorphism and multivector over different ambient dimensions")
    out = Multivector.zero(x.n, x.degree)
    for key, coeff in x.terms.items():
        term = Multivector.unit(x.n)
        for idx in key:
            term = term.wedge(endo.image_of(idx))
            if term.is_zero():
                break  # a zero partial product has too low a degree to add
        else:
            out = out + term.scaled(coeff)
    return out


def exp_nilpotent(endo: LinearEndo) -> LinearEndo:
    """Exponential of a nilpotent endomorphism by its finite series."""
    n = endo.n
    images = []
    for i in range(1, n + 1):
        total = Multivector.basis_one_form(n, i)
        term = total
        m = 1
        while True:
            term = derivation_apply(endo, term).scaled(Fraction(1, m))
            if term.is_zero():
                break
            total = total + term
            m += 1
            if m > n + 1:
                raise ValueError("endomorphism is not nilpotent")
        images.append(total)
    return LinearEndo(n, images)


def nilpotent_submodule_oracle(spec: AlmostAbelianSpec, k: int) -> list[Multivector]:
    """Brute-force alternative: stabilized kernel of powers of (monodromy - id).

    Requires every eigenvalue to have zero real part and a full-turn
    rotation, so the monodromy equals the exterior power of the rational
    unipotent matrix exp(shift); rescaling the lattice generator away
    does not change which vectors a unipotent map eventually annihilates.
    """
    if not oracle_applicable(spec):
        raise OracleUnavailable("oracle unavailable for this spectrum")
    if not 0 <= k <= spec.n:
        return []
    if k == 0:
        return [Multivector.unit(spec.n)]
    phi_one = exp_nilpotent(nilpotent_log(spec))
    keys = monomials(spec.n, k)
    rows = {}  # monomial -> row of (monodromy - id); powers multiply through it
    for key in keys:
        row = coordinate_vector(algebra_map_apply(phi_one, Multivector.monomial(spec.n, key)))
        diagonal = row.pop(key, 0) - 1
        if diagonal:
            row[key] = diagonal
        rows[key] = row
    power = list(rows.values())
    kernel = map_kernel(power)
    while True:
        power = matrix_mul(power, rows)
        bigger = map_kernel(power)
        if len(bigger) == len(kernel):
            break
        kernel = bigger
    vectors = [{keys[j]: c for j, c in vec.items()} for vec in kernel]
    return [Multivector(spec.n, k, row) for row in echelon_basis(vectors)]


def spans_match(a: list[Multivector], b: list[Multivector]) -> bool:
    """Subspace equality via canonical echelon coordinates."""
    if bool(a) != bool(b):
        return False
    rows_a = echelon_basis([coordinate_vector(x) for x in a])
    rows_b = echelon_basis([coordinate_vector(x) for x in b])
    return rows_a == rows_b
