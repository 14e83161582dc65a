"""The largest submodule of the fiber cohomology with unipotent monodromy.

On an almost abelian quotient the monodromy on the fiber cohomology is
the exterior extension of the dual twist action, so a complexified
degree-k monomial lies in the submodule exactly when the semisimple part
fixes it, i.e. when its weight sum is a resonance: zero real part, zero
symbolic imaginary part, integer resonant imaginary part.

Two routes are provided.  :func:`nilpotent_submodule` enumerates
resonant weight sums and realifies conjugate pairs of complex monomials
into integer vectors: symbols enter only through the weights, and each
slot generator is a sum of ``i**e * a_index`` terms, so expanding a
monomial multiplies index lists and tracks one sign and one power of i.
:func:`nilpotent_submodule_oracle` ignores weights entirely: it builds
the monodromy as the exterior power of the exponential of the shift part
(exact because the shift is nilpotent) and iterates exact kernels of
(monodromy - identity); it is available only when the semisimple part is
trivial, which is exactly when that matrix is rational.  The two routes must agree as subspaces wherever the oracle
applies.

The shift preserves the submodule, and :func:`shift_slice` splits each
degree-k slice into the kernel and a cokernel complement of the shift
there.  These are the two halves of the total space's cohomology,
``H^k = ker N_k (+) coker N_{k-1} ^ a`` under the modification
hypothesis, and the kernel in degree 2 is the space of closed invariant
2-forms, so cohomology and symplectic read this one elimination.

The weight of a monomial depends only on how many of its slots fall in
each group of slots sharing one weight, so :func:`resonant_monomials`
adds weights once per count vector, one fewer than the product of
``size + 1`` over the groups for every degree at once, and expands each
resonant vector into products of combinations inside the groups.

Both bases are memoized in-process, keyed by (spec, degree), so the
unipotent, cohomology, model, formality and symplectic stages share one
computation per degree; the resonant count vectors are memoized per
spec.  The memos are bounded and hold immutable tuples; every call
returns fresh lists.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product

from .errors import InternalInvariantViolation, OracleUnavailable
from .exterior import (
    Multivector,
    algebra_map_apply,
    coordinate_vector,
    derivation_apply,
    exp_nilpotent,
    monomials,
    sort_indices,
)
from .linalg import (
    EchelonAccumulator,
    echelon_basis,
    kernel_and_pivots,
    map_kernel,
    matrix_mul,
)
from .spectral import (
    SLICE_CACHE_SIZE,
    AlmostAbelianSpec,
    Weight,
    generator_weights,
    nilpotent_log,
)


def resonance_test(w: Weight) -> bool:
    """True when the semisimple monodromy part fixes a weight-w vector."""
    return w.re.is_zero() and w.im_symbolic.is_zero() and w.im_resonant.denominator == 1


def resonant_monomials(spec: AlmostAbelianSpec, k: int) -> list[tuple[int, ...]]:
    """Slot tuples of the degree-k complex monomials with resonant weight sum, sorted."""
    groups, counts = _resonant_counts(spec)
    kept = []
    for count in counts:
        if sum(count) != k:
            continue
        for parts in product(*(combinations(g, c) for g, c in zip(groups, count))):
            kept.append(tuple(sorted(chain.from_iterable(parts))))
    kept.sort()
    return kept


@lru_cache(maxsize=SLICE_CACHE_SIZE)
def _resonant_counts(spec: AlmostAbelianSpec) -> tuple[tuple, tuple]:
    """``(groups, counts)``: the slots grouped by weight, and every count vector
    (how many slots each group contributes) whose weight sum is a resonance."""
    by_weight: dict[Weight, list[int]] = {}
    for s in generator_weights(spec):
        by_weight.setdefault(s.weight, []).append(s.slot)
    sums = [((), Weight.zero())]
    for w, slots in by_weight.items():
        grown = []
        for count, total in sums:
            for c in range(len(slots) + 1):
                if c:
                    total = total + w
                grown.append((count + (c,), total))
        sums = grown
    return (
        tuple(tuple(slots) for slots in by_weight.values()),
        tuple(count for count, total in sums if resonance_test(total)),
    )


def _realify(slots, combo) -> tuple[dict, dict]:
    """Real and imaginary parts of the product of the slot generators, as integer rows."""
    parts: tuple[dict, dict] = ({}, {})
    for factors in product(*(slots[i].terms for i in combo)):
        sorted_ = sort_indices(index for index, _ in factors)
        if sorted_ is None:
            continue
        sign, key = sorted_
        power = sum(e for _, e in factors) % 4  # i**power: 1, i, -1, -i
        part = parts[power % 2]
        part[key] = part.get(key, 0) + (sign if power < 2 else -sign)
    return tuple({key: c for key, c in part.items() if c} for part in parts)


def nilpotent_submodule(spec: AlmostAbelianSpec, k: int) -> list[Multivector]:
    """Echelon basis of the degree-k slice of the unipotent-monodromy submodule.

    Complex monomials with resonant weight sum are realified in conjugate
    pairs (real and imaginary part, both integer after expansion); a
    self-conjugate monomial contributes its single nonzero part.  The
    result is the reduced echelon basis with respect to the lexicographic
    monomial order, so it is canonical and independent of how the parts
    are scaled.
    """
    return list(_nilpotent_submodule(spec, k))


@lru_cache(maxsize=SLICE_CACHE_SIZE)
def _nilpotent_submodule(spec: AlmostAbelianSpec, k: int) -> tuple[Multivector, ...]:
    if not 0 <= k <= spec.n:
        return ()
    slots = {s.slot: s for s in generator_weights(spec)}
    kept = resonant_monomials(spec, k)
    kept_set = set(kept)
    reps: list[dict] = []
    for combo in kept:
        conj = tuple(sorted(slots[i].conj for i in combo))
        if conj not in kept_set:
            raise InternalInvariantViolation(
                f"resonant monomial {combo} has non-resonant conjugate {conj}"
            )
        if conj < combo:
            continue  # kept is sorted, so the pair was realified at conj
        re, im = _realify(slots, combo)
        if conj == combo:
            # conjugation fixes the monomial up to sign, so exactly one
            # of the two parts can survive
            if bool(re) == bool(im):
                raise InternalInvariantViolation(
                    f"self-conjugate monomial {combo} did not expand to a single real part"
                )
            reps.append(re or im)
        else:
            reps.extend((re, im))
    if len(reps) != len(kept):
        raise InternalInvariantViolation(
            f"realification bookkeeping broke: {len(reps)} real vectors from {len(kept)} monomials"
        )
    basis_rows = echelon_basis([{key: Fraction(c) for key, c in rep.items()} for rep in reps])
    if len(basis_rows) != len(reps):
        raise InternalInvariantViolation("realified representatives are linearly dependent")
    return tuple(Multivector(spec.n, k, row) for row in basis_rows)


def shift_slice(spec: AlmostAbelianSpec, k: int) -> tuple[list[Multivector], list[Multivector]]:
    """``(kernel, cokernel)`` of the shift on the degree-k unipotent slice.

    The kernel is an echelon basis of the vectors of
    :func:`nilpotent_submodule` killed by the shift; the cokernel is the
    basis vectors whose pivot monomial is not a pivot of the shift image,
    a complement of that image in the slice.
    """
    if not 0 <= k <= spec.n:
        return [], []  # empty slice; kept out of the memo
    kernel, cokernel = _shift_slice(spec, k)
    return list(kernel), list(cokernel)


@lru_cache(maxsize=SLICE_CACHE_SIZE)
def _shift_slice(spec: AlmostAbelianSpec, k: int) -> tuple[tuple, tuple]:
    basis = _nilpotent_submodule(spec, k)
    rows = [coordinate_vector(u) for u in basis]
    slice_span = EchelonAccumulator.from_reduced(rows)
    shift = nilpotent_log(spec)
    images = []
    for u in basis:
        image = coordinate_vector(derivation_apply(shift, u))
        if slice_span.residue(image):
            raise InternalInvariantViolation(f"the shift maps {u} out of the unipotent slice")
        images.append(image)
    kernel, image_pivots = kernel_and_pivots(images)
    kernel_rows = echelon_basis(matrix_mul(kernel, rows))
    image_pivots = set(image_pivots)
    return (
        tuple(Multivector(spec.n, k, row) for row in kernel_rows),
        tuple(u for u in basis if min(u.terms) not in image_pivots),
    )


def oracle_applicable(spec: AlmostAbelianSpec) -> bool:
    """True when every slot weight is a resonance, i.e. the semisimple part is trivial."""
    return all(resonance_test(s.weight) for s in generator_weights(spec))


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
        diagonal = row.pop(key, Fraction(0)) - 1
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
    if not a and not b:
        return True
    if bool(a) != bool(b):
        return False
    rows_a = echelon_basis([coordinate_vector(x) for x in a])
    rows_b = echelon_basis([coordinate_vector(x) for x in b])
    return rows_a == rows_b


def in_submodule_span(basis: list[Multivector], x: Multivector) -> bool:
    """Membership of ``x`` in the span of an echelon ``basis`` (as returned by
    :func:`nilpotent_submodule` and :func:`shift_slice`)."""
    span = EchelonAccumulator.from_reduced([coordinate_vector(v) for v in basis])
    return not span.residue(coordinate_vector(x))
