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
the type of the spec data and the modified action.  Every
coefficient stored in forms, rows, model polynomials and symplectic values
follows one rule, :func:`_canonical`: an ``int`` when integral, a
``Fraction`` otherwise, a ``ScalarLC`` only while it carries a symbol.
"""

from __future__ import annotations

import re as _re
import sys
from fractions import Fraction

_SYMBOL_RE = _re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# an optional sign, then ASCII digits with "/digits" or one decimal point
_RATIONAL_RE = _re.compile(r"\s*[+-]?(?=\.?\d)(\d*)(?:/(\d+)|\.(\d*))?\s*\Z", _re.ASCII)
# the refusal of a literal, or a sum of them, with more digits than Python converts to text
_PAST_LIMIT = "rational literal of {} digits is above Python's limit of {} digits"


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

    def __add__(self, other) -> ScalarLC:
        other = _coerce(other)
        return ScalarLC(self.const + other.const, list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self) -> ScalarLC:
        return ScalarLC(-self.const, [(n, -c) for n, c in self.terms])

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
        pairs = [(self.const, "")] if self.const else []
        return _terms_text(pairs + [(coeff, name) for name, coeff in self.terms])

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


def _terms_text(pairs) -> str:
    """Text of a sum of ``(coefficient, monomial text)`` terms, ``t1 + t2 - t3``:
    an empty monomial text is the unit and prints the coefficient alone, a
    coefficient of 1 or -1 prints as a sign, and a coefficient whose own text
    is a sum is parenthesized.  No terms give ``"0"``."""
    texts = []
    for coeff, mono in pairs:
        if not mono:
            texts.append(str(coeff))
        elif coeff == 1:
            texts.append(mono)
        elif coeff == -1:
            texts.append("-" + mono)
        else:
            text = str(coeff)
            if " + " in text or " - " in text:
                text = f"({text})"
            texts.append(f"{text}*{mono}")
    # no term text holds " + -", so only the joins before negative terms change
    return " + ".join(texts).replace(" + -", " - ") if texts else "0"


def _coerce(value) -> ScalarLC:
    if isinstance(value, ScalarLC):
        return value
    return ScalarLC(Fraction(value))


def _digit_limit() -> int:
    """Python's limit on the digits of an ``int`` converted to text, 0 for none.
    ``sys.get_int_max_str_digits`` came with Python 3.11 and 3.10.7; an older
    interpreter has no limit, and neither does its conversion."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def quoted(text) -> str:
    """``repr(text)``, shortened for a long text to its first 32 characters and its length."""
    text = str(text)
    return repr(text) if len(text) <= 40 else f"{text[:32]!r}... ({len(text)} characters)"


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal such as ``"3"``, ``"-5/7"``, ``"0.25"`` or ``".5"``,
    in the grammar of ``_RATIONAL_RE``.  A literal whose numerator or denominator
    has more digits than :func:`_digit_limit` allows could not be echoed, so it is
    refused; a decimal with k digits after the point has a denominator of k + 1
    digits."""
    match = _RATIONAL_RE.match(str(text))
    if match is None or match[2] and not match[2].strip("0"):  # or a zero denominator
        raise ValueError(f"not a rational literal: {quoted(text)}")
    whole, denominator, decimals = match.groups()
    digits = max(len(whole + (decimals or "")), len(denominator or ""), len(decimals or "") + 1)
    limit = _digit_limit()
    if limit and digits > limit:
        raise ValueError(_PAST_LIMIT.format(digits, limit))
    return Fraction(str(text).strip())


def _rational_in(chunk: str, text: str) -> Fraction:
    """:func:`parse_rational` of one term of ``text``; an error quotes both."""
    try:
        return parse_rational(chunk)
    except ValueError as exc:
        raise ValueError(f"{exc} in scalar literal {quoted(text)}") from exc


def _check_digits(scalar: ScalarLC, text: str) -> None:
    """Refuse a parsed scalar with a numerator or denominator past :func:`_digit_limit`,
    as its literal is refused: a sum of literals within the limit can pass it.  A part
    below ``2**(3 * limit)``, which is below ``10**limit``, is within the limit."""
    limit = _digit_limit()
    if not limit:
        return
    for x in (scalar.const, *(c for _, c in scalar.terms)):
        for part in (abs(x.numerator), x.denominator):
            if part.bit_length() > 3 * limit and part >= 10**limit:
                digits, chunk = 0, 10**limit  # str(part) would raise: count chunk by chunk
                while part >= chunk:
                    part //= chunk
                    digits += limit
                digits += len(str(part))
                raise ValueError(f"{_PAST_LIMIT.format(digits, limit)} in scalar literal {quoted(text)}")


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
            raise ValueError(f"dangling operator in scalar literal {quoted(text)}")
        sign = Fraction(1)
        if chunk.startswith("-"):
            sign = Fraction(-1)
            chunk = chunk[1:]
        if not chunk:
            raise ValueError(f"dangling sign in scalar literal {quoted(text)}")
        if "*" in chunk:
            coeff_text, _, name = chunk.partition("*")
            coeff = sign * _rational_in(coeff_text, text)
        elif _SYMBOL_RE.match(chunk):
            name, coeff = chunk, sign
        else:
            const += sign * _rational_in(chunk, text)
            continue
        if not _SYMBOL_RE.match(name):
            raise ValueError(f"bad symbol name {quoted(name)} in scalar literal {quoted(text)}")
        if name not in symbols:
            raise ValueError(f"undeclared symbol {quoted(name)} in scalar literal {quoted(text)}")
        terms.append((name, coeff))
    scalar = ScalarLC(const, terms)
    _check_digits(scalar, text)
    return scalar
