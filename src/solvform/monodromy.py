"""The largest submodule of the fiber cohomology with unipotent monodromy.

On an almost abelian quotient the monodromy on the fiber cohomology is
the exterior extension of the dual twist action, so a complexified
degree-k monomial lies in the submodule exactly when the semisimple part
fixes it, i.e. when its weight sum is a resonance: zero real part, zero
symbolic imaginary part, integer resonant imaginary part.

Under the modification hypothesis every imaginary weight is an integer,
so resonance reads only the real parts, which a slot shares with its
conjugate: the resonant tuples are closed under swapping one complex slot
for its conjugate slot (certified), so their complex monomials span the
real monomials with the same index tuples, and :func:`nilpotent_submodule`
returns those unit rows.  Outside it (fractional or symbolic rotations,
which only the ``unipotent`` stage and library calls reach) every resonant
monomial is realified into integer vectors: symbols enter only through the
weights, and a slot generator is a sum of ``i**e * a_index`` terms, so
expanding a monomial multiplies index lists and tracks one sign and one
power of i.  The resonant monomials are closed under conjugation, so a
lost real or imaginary part or a lost conjugate changes the rank from one
per monomial, which is certified.  Its brute-force cross-check, where
:func:`oracle_applicable` holds, is :mod:`.oracle`.

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
indices ``j`` moves past.  On a slice of unit rows, as under the
hypothesis, an image lies in the slice exactly when its keys are slice
keys: one key's shift terms are distinct, so each is formed from the key
and written straight into the transposed columns of the kernel
elimination, with no image row, refused at a key outside the slice, and
a kernel vector keyed by slice monomial is its kernel row.  Otherwise
(only library calls outside the hypothesis) a reduced row is zero at
every other pivot, so an image lies in the slice exactly when the
combination of the rows given by its own entries at the pivots rebuilds
it.  The model build (the flag order of closed generators) and the twist
on closed generators read the same per-spec map and apply it with
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
computation per degree; a degree outside 0..n is empty and never enters
those memos, so a large ``--max-degree`` evicts no real slice.  The
resonant count vectors, the only form of the slot weights, and the
certified kernel sizes are memoized per spec here, and the slot table and
the shift's index map in :mod:`.spectral`.  A lookup hashes the spec without
hashing a ``Fraction``: ``ScalarLC`` keeps the hash taken at construction
and a parsed integral ``im_resonant`` is an ``int``.  The memos are
bounded and hold immutable tuples; every call returns fresh lists.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from itertools import chain, combinations, product
from math import comb, lgamma, log, prod
from operator import add

from .errors import InputError, InternalInvariantViolation
from .exterior import Multivector, sort_indices
from .linalg import _transpose, column_kernel_and_pivots, echelon_basis, matrix_mul
from .spectral import SLICE_CACHE_SIZE, AlmostAbelianSpec, _shift_index_map, _slot_table
from .spectral import modification_hypothesis_holds
from .scalars import _canonical

# Resonant monomials in the largest slice taken on.  `analyze` at K=3 on a 2-vCPU
# x86 VM: a nilpotent Jordan block of size 14 (3,432) takes 2.8 s, of size 15 (6,435)
# 7.1-7.7 s, of size 16 (12,870, refused here) 26 s with the limit lifted; complex pairs
# shorten the chains, so a 17-dimensional fiber with two of them (8,866) takes 4.1 s.
MAX_SLICE_MONOMIALS = 10000
# Weight-count vectors enumerated per spec.  Same VM, n size-1 real blocks of distinct
# real parts (2**n vectors, every slice above degree 0 empty): n = 14 takes 0.32 s,
# 16 (65,536) 1.2 s, 17 (131,072, refused here) 2.3 s, 18 5.7 s.
MAX_COUNT_VECTORS = 65536
# Counts stop here, far above both limits, and a capped count is not printed: 2**15000
# count vectors or a 4,815-digit slice (a real block of size 16,000) is never formed.
COUNT_CAP, CAPPED = 10**12, "at least 10**12"


def resonant_monomials(spec: AlmostAbelianSpec, k: int) -> list[tuple[int, ...]]:
    """Slot tuples of the degree-k complex monomials with resonant weight sum, sorted."""
    groups, counts = _resonant_counts(spec)
    if len(groups) == 1:  # combinations of one sorted group come sorted
        return list(combinations(groups[0], k)) if (k,) in counts else []
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
    sizes: dict[tuple, int] = {}  # slots per weight, read off the block sizes: a huge range has no len()
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
            weight = tuple(map(_canonical, head + tail))
            by_weight.setdefault(weight, []).append(slots)
            sizes[weight] = sizes.get(weight, 0) + block.size
    vectors = 1
    for size in sizes.values():
        vectors = min(vectors * (size + 1), COUNT_CAP)
    if vectors > MAX_COUNT_VECTORS:
        shown = vectors if vectors < COUNT_CAP else CAPPED
        raise InputError(
            f"fiber too large: its slot weights give {shown} weight-count vectors, "
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
def _sl2_kernel_sizes(spec: AlmostAbelianSpec) -> tuple[int, ...]:
    """The certified shift-kernel size of each degree 0..n: per weight group,
    ``polys[c]`` maps an sl2 weight to the number of c-slot subsets of that
    weight sum, and a count vector's monomials are counted by their product.
    The counts come first: their refusal runs before any slot is listed."""
    groups, counts = _resonant_counts(spec)
    table = _slot_table(spec)
    tables = []
    for group in groups:
        polys = [{0: 1}]
        for slot in group:
            polys.append({})
            for c in range(len(polys) - 1, 0, -1):  # downwards: polys[c - 1] is read unchanged
                _add_shifted(polys[c], polys[c - 1], table[slot][2], 1)
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
    """``InputError`` when a slice exceeds :data:`MAX_SLICE_MONOMIALS`; the slice
    sizes are capped sums of products of binomials, so nothing is enumerated."""
    groups, counts = _resonant_counts(spec)
    lengths = [len(g) for g in groups]
    sizes = [0] * (spec.n + 1)
    for count in counts:
        log_size = sum(lgamma(m + 1) - lgamma(c + 1) - lgamma(m - c + 1) for m, c in zip(lengths, count))
        size = prod(map(comb, lengths, count)) if log_size < log(COUNT_CAP) + 1 else COUNT_CAP
        sizes[sum(count)] = min(sizes[sum(count)] + size, COUNT_CAP)
    if max(sizes) > MAX_SLICE_MONOMIALS:
        k = sizes.index(max(sizes))
        shown = sizes[k] if sizes[k] < COUNT_CAP else CAPPED
        raise InputError(
            f"fiber too large: the degree-{k} unipotent slice has {shown} "
            f"resonant monomials, above the limit of {MAX_SLICE_MONOMIALS}"
        )


def _realify(table, combo) -> tuple[dict, dict]:
    """Real and imaginary parts of the product of the slot generators, as integer rows."""
    parts: tuple[dict, dict] = ({}, {})
    for factors in product(*(table[i][1] for i in combo)):
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

    Under the modification hypothesis the resonant tuples are closed under
    swapping one complex slot for its conjugate (certified), so the slice is
    their sorted unit rows; outside it every resonant monomial is realified
    and eliminated, to a rank of one per monomial (certified).  Either way
    the result is the reduced echelon basis in the lexicographic monomial
    order, so it is canonical.
    """
    if not 0 <= k <= spec.n:
        return []  # empty slice; kept out of the memo
    return list(_nilpotent_submodule(spec, k))


@lru_cache(maxsize=SLICE_CACHE_SIZE)
def _nilpotent_submodule(spec: AlmostAbelianSpec, k: int) -> tuple[Multivector, ...]:
    kept = resonant_monomials(spec, k)
    table = _slot_table(spec)
    if modification_hypothesis_holds(spec):
        # a real slot is its own conjugate, so only the complex slots have a swap to check
        conjugate = {i: slot[0] for i, slot in enumerate(table) if slot and slot[0] != i}
        if conjugate:
            kept_set = set(kept)
            for combo in kept:
                for p, i in enumerate(combo):
                    j = conjugate.get(i)
                    if j and j not in combo and combo[:p] + (j,) + combo[p + 1 :] not in kept_set:
                        raise InternalInvariantViolation(
                            f"resonant monomial {combo} has a non-resonant conjugate swap at slot {i}"
                        )
        basis_rows = [{combo: 1} for combo in kept]
    else:
        basis_rows = echelon_basis([part for combo in kept for part in _realify(table, combo) if part])
        if len(basis_rows) != len(kept):
            raise InternalInvariantViolation(
                f"the realified degree-{k} slice has rank {len(basis_rows)}, "
                f"not one per resonant monomial ({len(kept)})"
            )
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
    last = len(rows) - 1  # the images are eliminated in reversed order: row i is j = last - i
    if all(len(row) == 1 for row in rows):
        keys = [key for (key,) in rows]
        slice_keys = set(keys)
        columns: dict = {}
        for i, key in enumerate(keys):
            # _shift_row on the row {key: 1}, written out: one key's shift terms are
            # distinct, so nothing cancels, and a per-key generator shared with
            # _shift_row measured slower; the reference is
            # test_unit_shift_route_matches_the_general_route
            for p, a in enumerate(key):
                b = index_map[a]
                if not b:
                    continue
                q = bisect(key, b)
                if key[q - 1] == b:
                    continue  # b is already a factor
                new = key[:p] + key[p + 1 : q] + (b,) + key[q:]
                if new not in slice_keys:
                    raise InternalInvariantViolation(f"the shift maps {basis[i]} out of the unipotent slice")
                columns.setdefault(new, {})[last - i] = 1 if (q - p) & 1 else -1
        kernel, image_pivots = column_kernel_and_pivots(sorted(columns.items()), len(rows))
        kernel_rows = [{keys[last - j]: x for j, x in vec.items()} for vec in reversed(kernel)]
    else:
        # only library calls on specs outside the modification hypothesis get here;
        # a reduced row is zero at every other pivot, so an image inside the slice
        # is the combination of the rows given by its own entries at the pivots
        images = [_shift_row(row, index_map) for row in rows]
        keys = [min(row) for row in rows]
        by_pivot = dict(zip(keys, rows))
        at_pivots = [{p: x for p, x in image.items() if p in by_pivot} for image in images]
        rebuilt = matrix_mul(at_pivots, by_pivot)
        outside = [u for u, image, back in zip(basis, images, rebuilt) if back != image]
        if outside:
            raise InternalInvariantViolation(f"the shift maps {outside[0]} out of the unipotent slice")
        kernel, image_pivots = column_kernel_and_pivots(_transpose(images[::-1]), len(rows))
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
        tuple(u for u, key in zip(basis, keys) if key not in image_pivots),
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
    """True when every slot weight is a resonance, i.e. the semisimple part is
    trivial: exactly when each of the n slots is a resonant degree-1 monomial."""
    return len(resonant_monomials(spec, 1)) == spec.n


def __getattr__(name: str):
    """The oracle's two entry points, imported from :mod:`.oracle` on first use,
    so that ``monodromy.nilpotent_submodule_oracle`` keeps working for callers."""
    if name in ("nilpotent_submodule_oracle", "spans_match"):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
