"""The largest submodule of the fiber cohomology with unipotent monodromy.

On an almost abelian quotient the monodromy on the fiber cohomology is
the exterior extension of the dual twist action, so a complexified
degree-k monomial lies in the submodule exactly when the semisimple part
fixes it, i.e. when its weight sum is a resonance: zero real part, zero
symbolic imaginary part, integer resonant imaginary part.

:func:`nilpotent_submodule` enumerates resonant weight sums and
realifies conjugate pairs of complex monomials into integer vectors:
symbols enter only through the weights, and each slot generator is a sum
of ``i**e * a_index`` terms, so expanding a monomial multiplies index
lists and tracks one sign and one power of i.  Its brute-force
cross-check, where :func:`oracle_applicable` holds, is :mod:`.oracle`.

The shift preserves the submodule, and :func:`shift_slice` splits each
degree-k slice into the kernel and a cokernel complement of the shift
there.  These are the two halves of the total space's cohomology,
``H^k = ker N_k (+) coker N_{k-1} ^ a`` under the modification
hypothesis, and the kernel in degree 2 is the space of closed invariant
2-forms, so cohomology and symplectic read this one elimination.  The
shift sends each ``a_i`` to one later ``a_j`` or to 0, the map
:func:`.spectral._shift_index_map` lists, so it acts on the index
tuples of the integer slice rows directly: ``i`` is replaced by ``j``,
the tuple is re-sorted, and the sign is the parity of the number of
indices ``j`` moves past.  A product of real slots is its own real form,
so its row is the unit row of its index tuple and it is not realified;
when every row of a slice has a single term, the slice is its sorted unit
rows and no elimination runs.  A shift image then lies in the slice exactly
when its keys are keys of the slice; on the slices of nil7 this test takes
0.06 ms against 0.43 ms for the general one (2-vCPU x86 VM).  Otherwise a
reduced row is zero at every other pivot, so an image lies in the slice
exactly when the combination of the rows given by its own entries at the
pivots rebuilds it.
The model build (the flag order of closed generators) and the twist on
closed generators read the same per-spec map and apply it with
:func:`_shift_row`.

The shift kernel is eliminated with the images in reversed order, and
kernel index j maps back to ``last - j``; the image pivots do not depend
on the order.  On nil14 the reversed order meets 1,160 non-unit leads in
14,680 pivots instead of 6,059, and the reduced rows end with as many
nonzeros either way.  The kernel comes out reduced: a free column's vector
is 1 there and nonzero elsewhere only at pivot columns before it, which
are later rows, and a reduced row is zero at the pivots of the other rows,
so the combination of the slice rows is 1 at its free row's pivot and 0 at
every other free row's pivot.  The kernel size is then certified: the
slot at position j of a Jordan chain of length m has sl2 weight
``2j - (m - 1)``, so by Jacobson-Morozov the degree-k kernel has one
vector per resonant degree-k monomial of sl2 weight 0 or 1, counted per
weight group without listing monomials; any other size raises
:class:`.InternalInvariantViolation`.  Slice vectors skip the checks of
the public ``Multivector`` constructor: their keys come from this module.

The weight of a monomial depends only on how many of its slots fall in
each group of slots sharing one weight, so :func:`resonant_monomials`
adds weights once per count vector, one fewer than the product of
``size + 1`` over the groups for every degree at once, and expands each
resonant vector into products of combinations inside the groups.  The
sums run on plain numbers: a weight is the tuple of the rational part and
per-symbol coefficients of ``re`` and of ``im_symbolic``, then
``im_resonant``, each stored by the one coefficient rule, and a sum is
resonant when every entry but the last is 0 and the last is an integer.

Both bases are memoized in-process, keyed by (spec, degree), so the
unipotent, cohomology, model, formality and symplectic stages share one
computation per degree; the resonant count vectors, the slot table (the
slot weights indexed by slot) and the certified kernel sizes are memoized
per spec here, and the shift's index map in :mod:`.spectral`.  A lookup
hashes the spec without hashing a ``Fraction``: ``ScalarLC`` keeps the
hash taken at construction and a parsed integral ``im_resonant`` is an
``int``.  The memos are bounded and hold immutable tuples; every call
returns fresh lists.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from itertools import chain, combinations, product
from math import comb, prod
from operator import add

from .errors import InputError, InternalInvariantViolation
from .exterior import Multivector, sort_indices
from .linalg import echelon_basis, kernel_and_pivots, matrix_mul
from .spectral import (
    SLICE_CACHE_SIZE,
    AlmostAbelianSpec,
    Weight,
    _shift_index_map,
    generator_weights,
)
from .scalars import _canonical

# Resonant monomials in the largest slice taken on.  `analyze` at K=3 on a 2-vCPU
# x86 VM: a nilpotent Jordan block of size 14 (3,432) takes 12 s, of size 15
# (6,435) 71 s, of size 16 (12,870, refused here) 624 s; complex pairs shorten the
# chains, so a 17-dimensional fiber with two of them (8,866) takes 16 s.
MAX_SLICE_MONOMIALS = 10000
# Weight-count vectors enumerated per spec.  Same VM, n size-1 real blocks of distinct
# real parts (2**n vectors, every slice above degree 0 empty): n = 14 takes 0.32 s,
# 16 (65,536) 1.2 s, 17 (131,072, refused here) 2.3 s, 18 5.7 s.
MAX_COUNT_VECTORS = 65536


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
    (how many slots each group contributes) whose weight sum is a resonance; every
    degree needs them all, so more than :data:`MAX_COUNT_VECTORS` are refused first,
    from the group sizes read off the blocks, before any slot is listed."""
    names = sorted({name for b in spec.blocks for x in (b.re, b.im_symbolic) for name, _ in x.terms})
    by_weight: dict[tuple, list[range]] = {}
    for block, start in zip(spec.blocks, spec.block_starts()):
        re = dict(block.re.terms)
        head = (block.re.const, *(re.get(name, 0) for name in names))
        if block.kind == "real":
            runs = [((0,) * (len(names) + 1), range(start, start + block.size))]
        else:
            im = dict(block.im_symbolic.terms)
            tail = (*(im.get(name, 0) for name in names), block.im_resonant)
            stop = start + 2 * block.size
            runs = [(tail, range(start, stop, 2)), (tuple(-x for x in tail), range(start + 1, stop, 2))]
        for tail, slots in runs:
            by_weight.setdefault(tuple(map(_canonical, head + tail)), []).append(slots)
    vectors = prod(sum(map(len, ranges)) + 1 for ranges in by_weight.values())
    if vectors > MAX_COUNT_VECTORS:
        raise InputError(
            f"fiber too large: its slot weights give {vectors} weight-count vectors, "
            f"above the limit of {MAX_COUNT_VECTORS}"
        )
    groups = tuple(tuple(sorted(chain.from_iterable(ranges))) for ranges in by_weight.values())
    sums = [((), (0,) * (2 * len(names) + 2))]
    for w, slots in zip(by_weight, groups):
        grown = []
        for count, total in sums:
            for c in range(len(slots) + 1):
                if c:
                    total = _add_weights(total, w)
                grown.append((count + (c,), total))
        sums = grown
    return groups, tuple(
        count for count, total in sums if not any(total[:-1]) and total[-1].denominator == 1
    )


def _add_weights(a: tuple, b: tuple) -> tuple:
    """The sum of two weight coordinate tuples."""
    return tuple(map(add, a, b))


@lru_cache(maxsize=SLICE_CACHE_SIZE)
def _slot_table(spec: AlmostAbelianSpec) -> tuple:
    """:func:`generator_weights` indexed by slot (entry 0 unused), read once per spec."""
    return (None, *generator_weights(spec))


@lru_cache(maxsize=SLICE_CACHE_SIZE)
def _sl2_kernel_sizes(spec: AlmostAbelianSpec) -> tuple[int, ...]:
    """The certified shift-kernel size of each degree 0..n: per weight group,
    ``polys[c]`` maps an sl2 weight to the number of c-slot subsets of that
    weight sum, and a count vector's monomials are counted by their product."""
    sl2: dict[int, int] = {}
    for block, start in zip(spec.blocks, spec.block_starts()):
        step = 1 if block.kind == "real" else 2  # a complex cell is a z slot and its conjugate
        for j in range(block.size):
            for slot in range(start + step * j, start + step * (j + 1)):
                sl2[slot] = 2 * j - (block.size - 1)
    groups, counts = _resonant_counts(spec)
    tables = []
    for group in groups:
        polys = [{0: 1}]
        for slot in group:
            polys.append({})
            for c in range(len(polys) - 1, 0, -1):  # downwards: polys[c - 1] is read unchanged
                _add_shifted(polys[c], polys[c - 1], sl2[slot], 1)
        tables.append(polys)
    kappa = [0] * (spec.n + 1)
    for count in counts:
        total = {0: 1}
        for polys, c in zip(tables, count):
            if c:
                product: dict[int, int] = {}
                for w, m in polys[c].items():
                    _add_shifted(product, total, w, m)
                total = product
        kappa[sum(count)] += total.get(0, 0) + total.get(1, 0)
    return tuple(kappa)


def _add_shifted(out: dict, poly: dict, w: int, m: int) -> None:
    """Add ``m * x**w * poly`` to ``out``, both polynomials in x as weight -> count."""
    for x, n in poly.items():
        out[x + w] = out.get(x + w, 0) + m * n


def check_fiber_size(spec: AlmostAbelianSpec) -> None:
    """``InputError`` when a slice exceeds :data:`MAX_SLICE_MONOMIALS`; the
    slice sizes are sums of products of binomials, so nothing is enumerated."""
    groups, counts = _resonant_counts(spec)
    sizes = [0] * (spec.n + 1)
    for count in counts:
        sizes[sum(count)] += prod(map(comb, map(len, groups), count))
    if max(sizes) > MAX_SLICE_MONOMIALS:
        k = sizes.index(max(sizes))
        raise InputError(
            f"fiber too large: the degree-{k} unipotent slice has {sizes[k]} "
            f"resonant monomials, above the limit of {MAX_SLICE_MONOMIALS}"
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
    kept = resonant_monomials(spec, k)
    slots = _slot_table(spec)
    kept_set = set(kept)
    real = {s.slot for s in slots[1:] if s.conj == s.slot}
    reps: list[dict] = []
    for combo in kept:
        if real.issuperset(combo):
            reps.append({combo: 1})  # a product of real slots is its own real form
            continue
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
    if all(len(rep) == 1 for rep in reps):
        # single-term rows (all-real slot combinations among them) scaled to
        # 1 are the reduced echelon basis of their span; a repeated monomial
        # is a dependence, caught by the count below
        basis_rows = [{key: 1} for key in sorted({key for rep in reps for key in rep})]
    else:
        basis_rows = echelon_basis(reps)
    if len(basis_rows) != len(reps):
        raise InternalInvariantViolation("realified representatives are linearly dependent")
    return tuple(Multivector._from_row(spec.n, k, row) for row in basis_rows)


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
    rows = [u.terms for u in basis]
    index_map = _shift_index_map(spec)
    images = [_shift_row(row, index_map) for row in rows]
    if all(len(row) == 1 for row in rows):
        # every row is {key: 1}, so the slice holds exactly the images inside its keys
        keys = {key for row in rows for key in row}
        outside = [u for u, image in zip(basis, images) if not keys.issuperset(image)]
    else:
        # a reduced row is zero at every other pivot, so an image inside the slice
        # is the combination of the rows given by its own entries at the pivots
        by_pivot = {min(row): row for row in rows}
        at_pivots = [{p: x for p, x in image.items() if p in by_pivot} for image in images]
        rebuilt = matrix_mul(at_pivots, by_pivot)
        outside = [u for u, image, back in zip(basis, images, rebuilt) if back != image]
    if outside:
        raise InternalInvariantViolation(f"the shift maps {outside[0]} out of the unipotent slice")
    kernel, image_pivots = kernel_and_pivots(images[::-1])  # kernel index j is row last - j
    last = len(rows) - 1
    kernel_rows = matrix_mul([{last - j: x for j, x in vec.items()} for vec in reversed(kernel)], rows)
    kappa = _sl2_kernel_sizes(spec)[k]
    if len(kernel_rows) != kappa:
        raise InternalInvariantViolation(
            f"the degree-{k} shift kernel has {len(kernel_rows)} vectors, "
            f"but the sl2 weights of the slice count {kappa}"
        )
    image_pivots = set(image_pivots)
    return (
        tuple(Multivector._from_row(spec.n, k, row) for row in kernel_rows),
        tuple(u for u in basis if min(u.terms) not in image_pivots),
    )


def _shift_row(row: dict, index_map: tuple[int, ...]) -> dict:
    """The derivation extension of an index-raising map applied to a row keyed by
    index tuples: replacing ``i`` at position ``p`` of a key by ``j`` and sorting
    again moves ``j`` past the indices between them, which gives the sign."""
    image: dict = {}
    for key, c in row.items():
        for p, i in enumerate(key):
            j = index_map[i]
            if not j:
                continue
            q = bisect(key, j)
            if key[q - 1] == j:
                continue  # j is already a factor
            new = key[:p] + key[p + 1 : q] + (j,) + key[q:]
            x = image.get(new, 0) + (c if (q - p) & 1 else -c)
            if x:
                image[new] = x
            else:
                del image[new]
    return image


def oracle_applicable(spec: AlmostAbelianSpec) -> bool:
    """True when every slot weight is a resonance, i.e. the semisimple part is trivial."""
    return all(resonance_test(s.weight) for s in _slot_table(spec)[1:])


def __getattr__(name: str):
    """The oracle's two entry points, imported from :mod:`.oracle` on first use,
    so that ``monodromy.nilpotent_submodule_oracle`` keeps working for callers."""
    if name in ("nilpotent_submodule_oracle", "spans_match"):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
