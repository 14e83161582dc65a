"""Exact scalars: rationals extended by named transcendental symbols.

A scalar is ``c + q_1*s_1 + ... + q_m*s_m`` with ``c`` and the ``q_i``
rational and the ``s_i`` symbols that are assumed linearly independent
over the rationals together with 1.  Under that assumption a scalar is
zero exactly when every coefficient vanishes, so zero testing is a pure
inspection of the canonical form and never an approximation.

Symbols stand for transcendental eigenvalue parameters.  They are never
divided by, and products in which both factors carry symbols are refused
(the result would be quadratic in the symbols and leave this linear
model).  All algorithms in the package are arranged so that neither
operation is ever needed: divisions happen only by nonzero rationals,
and symbolic coefficients only ever meet rational ones.  ``ScalarLC`` is
the type of the spec data, the weights and the modified action.  Every
coefficient stored in forms, rows, model polynomials and symplectic values
follows one rule, :func:`_canonical`: an ``int`` when integral, a
``Fraction`` otherwise, a ``ScalarLC`` only while it carries a symbol.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

_SYMBOL_RE = _re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ScalarLC:
    """Canonical rational-linear combination ``const + sum(coeff * symbol)``.

    Immutable; symbol terms with coefficient zero are never stored, and
    the terms are kept sorted by symbol name, so equality and hashing are
    structural.  The hash is taken once, at construction: a spec keys the
    per-spec memos, and hashing it would otherwise hash every ``Fraction``
    of its blocks again on each lookup.
    """

    __slots__ = ("const", "terms", "_hash")

    def __init__(self, const=0, terms=None):
        object.__setattr__(self, "const", Fraction(const))
        canon = []
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            merged: dict[str, Fraction] = {}
            for name, coeff in items:
                coeff = Fraction(coeff)
                merged[name] = merged.get(name, Fraction(0)) + coeff
            canon = [(name, c) for name, c in sorted(merged.items()) if c != 0]
        object.__setattr__(self, "terms", tuple(canon))
        object.__setattr__(self, "_hash", hash((self.const, self.terms)))

    def __setattr__(self, name, value):
        raise AttributeError("ScalarLC is immutable")

    def is_zero(self) -> bool:
        return self.const == 0 and not self.terms

    def as_fraction(self) -> Fraction:
        if self.terms:
            raise ValueError(f"scalar {self} carries symbols, not a plain rational")
        return self.const

    def __add__(self, other) -> ScalarLC:
        other = _coerce(other)
        return ScalarLC(self.const + other.const, list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self) -> ScalarLC:
        return ScalarLC(-self.const, [(n, -c) for n, c in self.terms])

    def __sub__(self, other) -> ScalarLC:
        return self + (-_coerce(other))

    def __rsub__(self, other) -> ScalarLC:
        return _coerce(other) + (-self)

    def __mul__(self, other) -> ScalarLC:
        other = _coerce(other)
        if self.terms and other.terms:
            raise ValueError(
                f"product of symbolic scalars ({self})*({other}) leaves the linear model"
            )
        if other.terms:
            self, other = other, self
        q = other.const
        return ScalarLC(self.const * q, [(n, c * q) for n, c in self.terms])

    __rmul__ = __mul__

    def __truediv__(self, other) -> ScalarLC:
        if isinstance(other, ScalarLC):
            other = other.as_fraction()
        q = Fraction(other)
        return ScalarLC(self.const / q, [(n, c / q) for n, c in self.terms])

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ScalarLC(other)
        if not isinstance(other, ScalarLC):
            return NotImplemented
        return self.const == other.const and self.terms == other.terms

    def __hash__(self):
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        texts = [str(self.const)] if self.const != 0 else []
        for name, coeff in self.terms:
            if coeff == 1:
                texts.append(name)
            elif coeff == -1:
                texts.append(f"-{name}")
            else:
                texts.append(f"{coeff}*{name}")
        return _join_terms(texts)

    def __repr__(self) -> str:
        return f"ScalarLC({self})"


def _canonical(x):
    """The stored form of an exact coefficient under the module's one rule."""
    if type(x) is int:
        return x
    if type(x) is ScalarLC:
        if x.terms:
            return x
        x = x.const
    return x.numerator if x.denominator == 1 else x


def _join_terms(texts) -> str:
    """Join signed term texts as ``t1 + t2 - t3``; no terms is ``"0"``."""
    parts = []
    for text in texts:
        if not parts:
            parts.append(text)
        elif text.startswith("-"):
            parts.append(f"- {text[1:]}")
        else:
            parts.append(f"+ {text}")
    return " ".join(parts) if parts else "0"


def _coerce(value) -> ScalarLC:
    if isinstance(value, ScalarLC):
        return value
    return ScalarLC(Fraction(value))


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal such as ``"3"``, ``"-5/7"``, ``"0.25"``."""
    try:
        if "e" in str(text).lower():  # Fraction("1e999999999") builds 10**999999999
            raise ValueError("exponent")
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def parse_scalar(text: str, symbols=()) -> ScalarLC:
    """Parse a scalar literal like ``"1/2"``, ``"-b"`` or ``"2 - 3/4*b"``.

    Terms are joined with ``+``/``-``; a symbolic term is either a bare
    declared symbol or ``coeff*symbol``.  Undeclared symbols are rejected.
    """
    source = str(text).replace(" ", "")
    if not source:
        raise ValueError("empty scalar literal")
    chunks = source.replace("-", "+-").split("+")
    const = Fraction(0)
    terms: list[tuple[str, Fraction]] = []
    for pos, chunk in enumerate(chunks):
        if not chunk:
            if pos == 0:
                continue  # harmless leading sign artifact
            raise ValueError(f"dangling operator in scalar literal {text!r}")
        sign = Fraction(1)
        if chunk.startswith("-"):
            sign = Fraction(-1)
            chunk = chunk[1:]
        if not chunk:
            raise ValueError(f"dangling sign in scalar literal {text!r}")
        if "*" in chunk:
            coeff_text, _, name = chunk.partition("*")
            coeff = sign * parse_rational(coeff_text)
        elif _SYMBOL_RE.match(chunk):
            name, coeff = chunk, sign
        else:
            const += sign * parse_rational(chunk)
            continue
        if not _SYMBOL_RE.match(name):
            raise ValueError(f"bad symbol name {name!r} in scalar literal {text!r}")
        if name not in symbols:
            raise ValueError(f"undeclared symbol {name!r} in scalar literal {text!r}")
        terms.append((name, coeff))
    return ScalarLC(const, terms)
