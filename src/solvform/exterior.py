"""Sparse exterior algebra on the dual basis ``a1, ..., an``.

A multivector of degree k is a finite map from strictly increasing
k-tuples of indices in ``1..n`` to nonzero scalars.  Reordering signs
are folded into the coefficients when a term is built, so equality of
multivectors (and in particular the zero test) is a plain comparison of
canonical data.

Index tuples are ordered lexicographically everywhere a basis of the
degree-k slice is enumerated; downstream elimination relies on that
fixed order for deterministic pivoting.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from .scalars import ScalarLC

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


def monomials(n: int, k: int) -> list[tuple[int, ...]]:
    """Degree-k index tuples in lexicographic order."""
    if k < 0 or k > n:
        return []
    return list(combinations(range(1, n + 1), k))


def _as_scalar(value) -> ScalarLC:
    return value if isinstance(value, ScalarLC) else ScalarLC(Fraction(value))


class Multivector:
    """Element of the degree-``degree`` slice of the exterior algebra on n symbols."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int, terms=None):
        self.n = n
        self.degree = degree
        canon: dict[tuple[int, ...], ScalarLC] = {}
        if terms:
            for key, coeff in terms.items() if isinstance(terms, dict) else terms:
                coeff = _as_scalar(coeff)
                if coeff.is_zero():
                    continue
                key = tuple(key)
                if len(key) != degree:
                    raise ValueError(f"term {key} has wrong degree (expected {degree})")
                if any(not 1 <= i <= n for i in key) or any(
                    key[i] >= key[i + 1] for i in range(len(key) - 1)
                ):
                    raise ValueError(f"term {key} is not a strictly increasing tuple in 1..{n}")
                prev = canon.get(key)
                total = coeff if prev is None else prev + coeff
                if total.is_zero():
                    canon.pop(key, None)
                else:
                    canon[key] = total
        self.terms = dict(sorted(canon.items()))

    @classmethod
    def zero(cls, n: int, degree: int) -> Multivector:
        return cls(n, degree)

    @classmethod
    def unit(cls, n: int) -> Multivector:
        return cls(n, 0, {(): ScalarLC(1)})

    @classmethod
    def monomial(cls, n: int, indices, coeff=1) -> Multivector:
        sorted_ = sort_indices(indices)
        if sorted_ is None:
            return cls(n, len(tuple(indices)))
        sign, key = sorted_
        return cls(n, len(key), {key: _as_scalar(coeff) * sign})

    @classmethod
    def basis_one_form(cls, n: int, i: int) -> Multivector:
        return cls.monomial(n, (i,))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices) -> ScalarLC:
        return self.terms.get(tuple(indices), ScalarLC(0))

    def __add__(self, other: Multivector) -> Multivector:
        self._check_compatible(other)
        return Multivector(self.n, self.degree, list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other: Multivector) -> Multivector:
        return self + (-other)

    def __neg__(self) -> Multivector:
        return self.scaled(-1)

    def scaled(self, coeff) -> Multivector:
        coeff = _as_scalar(coeff)
        return Multivector(self.n, self.degree, [(k, c * coeff) for k, c in self.terms.items()])

    def __rmul__(self, coeff) -> Multivector:
        return self.scaled(coeff)

    def wedge(self, other: Multivector) -> Multivector:
        if other.n != self.n:
            raise ValueError("wedge of multivectors over different ambient dimensions")
        degree = self.degree + other.degree
        if degree > self.n:
            return Multivector(self.n, degree)
        acc: list = []
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                merged = merge_indices(u, v)
                if merged is None:
                    continue
                sign, key = merged
                acc.append((key, (cu * cv) * sign))
        return Multivector(self.n, degree, acc)

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
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in self.terms.items():
            mono = mono_str(key)
            if coeff == ScalarLC(1):
                text = mono
            elif coeff == ScalarLC(-1):
                text = f"-{mono}"
            else:
                coeff_text = str(coeff)
                if any(op in coeff_text for op in (" + ", " - ")):
                    coeff_text = f"({coeff_text})"
                text = f"{coeff_text}*{mono}"
            if parts and not text.startswith("-"):
                parts.append(f"+ {text}")
            elif parts:
                parts.append(f"- {text[1:]}")
            else:
                parts.append(text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Multivector({self})"


def mono_str(key) -> str:
    if not key:
        return "1"
    if key[-1] <= 9:
        return "a" + "".join(str(i) for i in key)
    return "a(" + ",".join(str(i) for i in key) + ")"


def wedge(a: Multivector, b: Multivector) -> Multivector:
    return a.wedge(b)


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

    @classmethod
    def zero(cls, n: int) -> LinearEndo:
        return cls(n, [Multivector.zero(n, 1) for _ in range(n)])

    def image_of(self, i: int) -> Multivector:
        return self.images[i - 1]

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images)

    def trace(self) -> ScalarLC:
        total = ScalarLC(0)
        for i in range(1, self.n + 1):
            total = total + self.images[i - 1].coefficient((i,))
        return total

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


def top_coefficient(x: Multivector) -> ScalarLC:
    """Coefficient of the full top monomial ``a1...an``; requires top degree."""
    if x.degree != x.n:
        raise ValueError(f"top coefficient needs degree {x.n}, got degree {x.degree}")
    return x.coefficient(tuple(range(1, x.n + 1)))


def coordinate_vector(x: Multivector, keys: list) -> list[Fraction]:
    """Rational coordinates of ``x`` against an ordered monomial list."""
    positions = {key: i for i, key in enumerate(keys)}
    out = [Fraction(0)] * len(keys)
    for key, coeff in x.terms.items():
        if key not in positions:
            raise ValueError(f"monomial {key} outside the given basis")
        out[positions[key]] = coeff.as_fraction()
    return out


def from_coordinates(n: int, degree: int, keys: list, vec) -> Multivector:
    return Multivector(n, degree, [(key, Fraction(c)) for key, c in zip(keys, vec) if c != 0])


def primitive_part(x: Multivector) -> Multivector:
    """Scale to integer content-1 coefficients with a positive leading term."""
    if x.is_zero():
        return x
    fracs = [c.as_fraction() for c in x.terms.values()]
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
    nums = [int(f * denom_lcm) for f in fracs]
    g = 0
    for v in nums:
        g = gcd(g, abs(v))
    scale = Fraction(denom_lcm, g)
    lead = min(x.terms)
    if x.terms[lead].as_fraction() < 0:
        scale = -scale
    return x.scaled(scale)
