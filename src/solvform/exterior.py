"""Sparse exterior algebra on the dual basis ``a1, ..., an``.

A multivector of degree k is a finite map from strictly increasing
k-tuples of indices in ``1..n`` to nonzero coefficients, stored by the
one coefficient rule of :mod:`.scalars`: an ``int`` when integral, a
``Fraction`` otherwise, and a :class:`.ScalarLC` only while it carries a
symbol (the modified action of a symbolic spec and what derives from it).
Reordering signs are folded into the coefficients when a term is built,
so equality of multivectors (and in particular the zero test) is a plain
comparison of canonical data.

Index tuples are ordered lexicographically everywhere a basis of the
degree-k slice is enumerated.  The terms are the sparse row handed to
:mod:`.linalg` (:func:`coordinate_vector`), with the index tuples as
columns, so pivoting follows that same order, the wedge product is the
row product ``_multiply_into`` with :func:`merge_indices`, and a row
converts back with ``Multivector(n, degree, row)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import ge

from .linalg import _multiply_into
from .scalars import ScalarLC, _canonical, _join_terms

Indices = "tuple[int, ...]"


def sort_indices(seq) -> tuple[int, tuple[int, ...]] | None:
    """Sort an index sequence, returning (sign, tuple) or None on repeats."""
    items = list(seq)
    sign = 1
    # insertion sort; index lists here are tiny
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and items[j - 1] == items[j]:
            return None
    return sign, tuple(items)


def merge_indices(u, v) -> tuple[int, tuple[int, ...]] | None:
    """Concatenate two sorted index tuples with the reordering sign."""
    sign = 1
    out = []
    i = j = 0
    while i < len(u) and j < len(v):
        if u[i] == v[j]:
            return None
        if u[i] < v[j]:
            out.append(u[i])
            i += 1
        else:
            # v[j] jumps over the len(u)-i remaining factors of u
            if (len(u) - i) % 2:
                sign = -sign
            out.append(v[j])
            j += 1
    out.extend(u[i:])
    out.extend(v[j:])
    return sign, tuple(out)


class Multivector:
    """Element of the degree-``degree`` slice of the exterior algebra on n symbols."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int, terms=None):
        self.n = n
        self.degree = degree
        canon: dict[tuple[int, ...], int | Fraction | ScalarLC] = {}
        if terms:
            for key, coeff in terms.items() if isinstance(terms, dict) else terms:
                coeff = _canonical(coeff)
                if not coeff:
                    continue
                key = tuple(key)
                if len(key) != degree:
                    raise ValueError(f"term {key} has wrong degree (expected {degree})")
                # a strictly increasing key lies in 1..n when its ends do
                if key and (key[0] < 1 or key[-1] > n or any(map(ge, key, key[1:]))):
                    raise ValueError(f"term {key} is not a strictly increasing tuple in 1..{n}")
                if key in canon:
                    coeff = _canonical(canon.pop(key) + coeff)
                if coeff:
                    canon[key] = coeff
        self.terms = dict(sorted(canon.items()))

    @classmethod
    def _from_row(cls, n: int, degree: int, row: dict) -> Multivector:
        """``Multivector(n, degree, row)`` for a row the package enumerated itself:
        strictly increasing degree-``degree`` keys in 1..n, nonzero coefficients
        already stored by the one rule.  The terms are sorted; nothing is re-checked."""
        x = object.__new__(cls)
        x.n = n
        x.degree = degree
        x.terms = dict(sorted(row.items()))
        return x

    @classmethod
    def zero(cls, n: int, degree: int) -> Multivector:
        return cls(n, degree)

    @classmethod
    def unit(cls, n: int) -> Multivector:
        return cls(n, 0, {(): 1})

    @classmethod
    def monomial(cls, n: int, indices, coeff=1) -> Multivector:
        sorted_ = sort_indices(indices)
        if sorted_ is None:
            return cls(n, len(tuple(indices)))
        sign, key = sorted_
        return cls(n, len(key), {key: coeff * sign})

    @classmethod
    def basis_one_form(cls, n: int, i: int) -> Multivector:
        return cls.monomial(n, (i,))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices) -> int | Fraction | ScalarLC:
        return self.terms.get(tuple(indices), 0)

    def __add__(self, other: Multivector) -> Multivector:
        self._check_compatible(other)
        return Multivector(self.n, self.degree, list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other: Multivector) -> Multivector:
        return self + (-other)

    def __neg__(self) -> Multivector:
        return self.scaled(-1)

    def scaled(self, coeff) -> Multivector:
        return Multivector(self.n, self.degree, [(k, c * coeff) for k, c in self.terms.items()])

    def __rmul__(self, coeff) -> Multivector:
        return self.scaled(coeff)

    def wedge(self, other: Multivector) -> Multivector:
        if other.n != self.n:
            raise ValueError("wedge of multivectors over different ambient dimensions")
        degree = self.degree + other.degree
        if degree > self.n:
            return Multivector(self.n, degree)
        return Multivector(self.n, degree, _multiply_into({}, self.terms, other.terms, merge_indices))

    def extend_ambient(self, new_n: int) -> Multivector:
        if new_n < self.n:
            raise ValueError("cannot shrink the ambient dimension")
        return Multivector(new_n, self.degree, self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.n == other.n and self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, self.degree, tuple(self.terms.items())))

    def _check_compatible(self, other: Multivector):
        if self.n != other.n or self.degree != other.degree:
            raise ValueError("multivectors have different ambient dimension or degree")

    def __str__(self) -> str:
        texts = []
        for key, coeff in self.terms.items():
            mono = mono_str(key)
            if coeff == 1:
                texts.append(mono)
            elif coeff == -1:
                texts.append(f"-{mono}")
            else:
                coeff_text = str(coeff)
                if any(op in coeff_text for op in (" + ", " - ")):
                    coeff_text = f"({coeff_text})"
                texts.append(f"{coeff_text}*{mono}")
        return _join_terms(texts)

    def __repr__(self) -> str:
        return f"Multivector({self})"


def mono_str(key) -> str:
    if not key:
        return "1"
    if key[-1] <= 9:
        return "a" + "".join(map(str, key))
    return "a(" + ",".join(map(str, key)) + ")"


def wedge_power(a: Multivector, p: int) -> Multivector:
    out = Multivector.unit(a.n)
    for _ in range(p):
        out = out.wedge(a)
    return out


class LinearEndo:
    """Linear endomorphism of the degree-1 slice, stored by generator images."""

    __slots__ = ("n", "images")

    def __init__(self, n: int, images):
        images = tuple(images)
        if len(images) != n:
            raise ValueError(f"expected {n} generator images, got {len(images)}")
        for img in images:
            if img.degree != 1 or img.n != n:
                raise ValueError("generator images must be degree-1 multivectors over the same basis")
        self.n = n
        self.images = images

    def image_of(self, i: int) -> Multivector:
        return self.images[i - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearEndo):
            return NotImplemented
        return self.n == other.n and self.images == other.images

    def __repr__(self):
        parts = ", ".join(f"a{i} -> {img}" for i, img in enumerate(self.images, start=1))
        return f"LinearEndo({parts})"


def derivation_apply(endo: LinearEndo, x: Multivector) -> Multivector:
    """Degree-0 derivation (Leibniz) extension of ``endo`` applied to ``x``.

    On a monomial each factor is replaced in turn by its image; no Koszul
    sign appears beyond the reordering folded in by construction.
    """
    if endo.n != x.n:
        raise ValueError("endomorphism and multivector over different ambient dimensions")
    acc: list = []
    for key, coeff in x.terms.items():
        for p, idx in enumerate(key):
            image = endo.image_of(idx)
            if image.is_zero():
                continue
            rest = key[:p] + key[p + 1 :]
            for (j,), cj in image.terms.items():
                sorted_ = sort_indices(rest[: p] + (j,) + rest[p:])
                if sorted_ is None:
                    continue
                sign, new_key = sorted_
                acc.append((new_key, (coeff * cj) * sign))
    return Multivector(x.n, x.degree, acc)


def top_coefficient(x: Multivector) -> int | Fraction | ScalarLC:
    """Coefficient of the full top monomial ``a1...an``; requires top degree."""
    if x.degree != x.n:
        raise ValueError(f"top coefficient needs degree {x.n}, got degree {x.degree}")
    return x.coefficient(tuple(range(1, x.n + 1)))


def coordinate_vector(x: Multivector) -> dict[tuple[int, ...], int | Fraction]:
    """Sparse rational row of ``x``, keyed by its index tuples (error if symbolic)."""
    if any(isinstance(coeff, ScalarLC) for coeff in x.terms.values()):
        raise ValueError(f"multivector {x} carries symbols, not plain rationals")
    return dict(x.terms)


def primitive_part(x: Multivector) -> Multivector:
    """Scale to integer content-1 coefficients with a positive leading term."""
    if x.is_zero():
        return x
    row = coordinate_vector(x)
    denom = lcm(*(f.denominator for f in row.values()))
    scale = Fraction(denom, gcd(*(int(f * denom) for f in row.values())))
    return x.scaled(-scale if row[min(row)] < 0 else scale)
