"""An independent check of the Betti numbers and model dumps of a report.

``verify`` recomputes a report with the same code that wrote it, so a bug in
that code verifies itself.  This module imports nothing from ``solvform``.

:func:`betti_numbers` reads a symbol-free input document and builds the
modified action itself: each block's real part on the diagonal and its
nilpotent shift above it, the integer rotations dropped, so that a complex
block of size m is two interleaved shift chains of length m.  The Lie algebra
cohomology of the total space is ``ker D_k (+) coker D_(k-1)``, with ``D_k``
that action extended as a derivation to the degree-k wedges, so
``b_k = (C(n, k) - rank D_k) + (C(n, k-1) - rank D_(k-1))``, the ranks taken
by a ``Fraction`` elimination written here.

The dump check reads only the text of a report's
``model/dump`` lines (``serialize_model``) and ``formality/total_model`` lines
(``total_model_dump``) and imports nothing from ``solvform``: polynomials are
parsed back into ``{monomial: Fraction}`` maps, where a monomial is the sorted
tuple of its generator numbers, and multiplied by a graded-commutative product
written here.  For every generator g it checks

  * the dump's own structure: "closed" exactly when d(g) = 0, the realization
    of a non-closed generator is 0, and d(g) has no linear term, uses only
    earlier generators and has degree |g| + 1;
  * that the total model repeats d(g) and the realization of the model dump;
  * d(d(g)) = 0, with d the degree-1 derivation the dump defines;
  * theta(d(g)) = d(theta(g)), with theta the degree-0 derivation read off
    the A-part of D(g) = d(g) + theta(g)*A.  As A is closed and odd, D*D = 0
    is exactly this and d*d = 0.

:func:`certify_dumps` returns one line per failed check, so an empty list
certifies the dumps.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import comb

_MODEL_LINE = re.compile(r"g(\d+): degree (\d+), (closed|non-closed), d\(g\1\) = (.*), rho\(g\1\) = (.*)\Z")
_TOTAL_LINE = re.compile(r"D\(g(\d+)\) = (.*), tau\(g\1\) = (.*)\Z")
_TERM = re.compile(r"(-?)(?:(\d+(?:/\d+)?)\*)?(g\d+(?:\^\d+)?(?:\*g\d+(?:\^\d+)?)*)\Z")


def parse_poly(text: str) -> dict:
    """``-1/2*g1^2 + g1*g3`` as ``{(1, 1): -1/2, (1, 3): 1}``; ``0`` is ``{}``."""
    if text == "0":
        return {}
    poly: dict = {}
    for term in text.replace(" - ", " + -").split(" + "):
        match = _TERM.match(term)
        if match is None:
            raise ValueError(f"not a model term: {term!r}")
        sign, coeff, mono = match.groups()
        factors = []
        for factor in mono.split("*"):
            name, _, power = factor.partition("^")
            factors += [int(name[1:])] * int(power or 1)
        key = tuple(sorted(factors))
        poly[key] = poly.get(key, 0) + Fraction(coeff or 1) * (-1 if sign else 1)
    return {m: c for m, c in poly.items() if c}


class Algebra:
    """The free graded-commutative algebra on generators of the given degrees."""

    def __init__(self, degrees: dict):
        self.degrees = degrees  # generator number -> degree

    def mono_mul(self, u: tuple, v: tuple):
        """(sign, sorted monomial) of the product u*v, or None when an odd generator repeats."""
        odd = [g for g in u + v if self.degrees[g] % 2]
        if len(set(odd)) < len(odd):
            return None
        # moving odd factors into sorted order: one sign per inverted pair
        inversions = sum(1 for i, g in enumerate(odd) for h in odd[i + 1:] if g > h)
        return (-1) ** inversions, tuple(sorted(u + v))

    def mul(self, p: dict, q: dict) -> dict:
        out: dict = {}
        for u, a in p.items():
            for v, b in q.items():
                product = self.mono_mul(u, v)
                if product is not None:
                    sign, w = product
                    out[w] = out.get(w, 0) + sign * a * b
        return {m: c for m, c in out.items() if c}

    def derive(self, p: dict, images: dict, degree: int) -> dict:
        """The derivation of the given degree sending generator g to ``images[g]``:
        on x1*...*xk, the sum over i of (-1)^(degree * (|x1| + ... + |x(i-1)|))
        x1*...*x(i-1) * D(xi) * x(i+1)*...*xk."""
        out: dict = {}
        for mono, coeff in p.items():
            for i, g in enumerate(mono):
                passed = sum(self.degrees[h] for h in mono[:i])
                sign = -1 if degree * passed % 2 else 1
                term = self.mul(self.mul({mono[:i]: sign * coeff}, images.get(g, {})), {mono[i + 1:]: 1})
                for m, c in term.items():
                    out[m] = out.get(m, 0) + c
        return {m: c for m, c in out.items() if c}


def _split_total(rhs: str):
    """The d-part and theta-part texts of ``D(g) = d(g) + theta(g)*A``."""
    if not rhs.endswith("*A"):
        return rhs, "0"
    body = rhs[: -len("*A")]
    if body.endswith(")"):  # a twist of several terms or a coefficient other than +-1
        cut = body.rindex("(")
        return body[:cut].removesuffix(" + ") or "0", body[cut + 1 : -1]
    d_text, _, twist = body.rpartition(" + ")  # a single +-1 term holds no space
    return d_text or "0", twist


def certify_dumps(model_lines: list[str], total_lines: list[str]) -> list[str]:
    """Every failed check on the two dumps, one line each; [] certifies them."""
    gens = [_MODEL_LINE.match(line) for line in model_lines[2:]]
    if not all(gens):
        return [f"unparsed model line {line!r}" for line, m in zip(model_lines[2:], gens) if not m]
    degrees = {int(m[1]): int(m[2]) for m in gens}
    d = {int(m[1]): parse_poly(m[4]) for m in gens}
    algebra = Algebra(degrees)
    failures = []
    for m in gens:
        g, kind, rho = int(m[1]), m[3], m[5]
        if (kind == "closed") != (not d[g]) or (kind == "non-closed" and rho != "0"):
            failures.append(f"g{g}: kind {kind} with d = {m[4]} and rho = {rho}")
        for mono in d[g]:
            if len(mono) < 2 or max(mono) >= g or sum(map(degrees.get, mono)) != degrees[g] + 1:
                failures.append(f"g{g}: d has the term {mono}")
        if algebra.derive(d[g], d, 1):
            failures.append(f"g{g}: d(d(g{g})) is not zero")
    if len(total_lines) != len(gens) + 2 or not total_lines[1].startswith("D(A) = 0, tau(A) = "):
        return failures + ["the total model does not list A and every generator"]
    theta = {}
    for m, line in zip(gens, total_lines[2:]):
        total = _TOTAL_LINE.match(line)
        d_text, twist = _split_total(total[2]) if total else ("", "")
        if not total or int(total[1]) != int(m[1]) or parse_poly(d_text) != d[int(m[1])] or total[3] != m[5]:
            failures.append(f"the total model line {line!r} does not repeat its model line")
            continue
        theta[int(m[1])] = parse_poly(twist)
    for g, value in theta.items():
        if any(sum(map(degrees.get, mono)) != degrees[g] for mono in value):
            failures.append(f"g{g}: theta(g{g}) is not of degree {degrees[g]}")
        if algebra.derive(d[g], theta, 0) != algebra.derive(value, d, 1):
            failures.append(f"g{g}: theta(d(g{g})) differs from d(theta(g{g}))")
    return failures



def _rational(value) -> Fraction:
    """A symbol-free scalar field such as ``"-1/2"``, ``"0.25"``, ``"1/3 + 2/3"`` or 3."""
    terms = str(value).replace(" ", "").replace("-", "+-").split("+")
    return sum((Fraction(term) for term in terms if term), Fraction(0))


def modified_action(doc: dict) -> list[list[Fraction]]:
    """The n x n modified action of a symbol-free input document; row i is the image of e_i."""
    n = doc["n"]
    action = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    for block in doc["blocks"]:
        if _rational(block.get("im_resonant", "0")).denominator != 1 or _rational(block.get("im_symbolic", "0")):
            raise ValueError(f"the rotation of {block} is not an integer resonance")
        step = 1 if block["kind"] == "real" else 2  # a complex cell is a pair of coordinates
        stop = start + step * block["size"]
        for c in range(start, stop):
            action[c][c] = _rational(block.get("re", "0"))
            if c + step < stop:
                action[c][c + step] = Fraction(1)
        start = stop
    return action


def wedge_derivation(action: list[list[Fraction]], k: int) -> list[list[Fraction]]:
    """The derivation extending ``action`` to the degree-k wedges of e_0, ..., e_(n-1):
    row I is the image of e_I, over the sorted k-subsets.  Putting e_t at position p
    of e_I and sorting moves it past ``|q - p|`` factors, where q is its sorted place."""
    subsets = list(combinations(range(len(action)), k))
    index = {subset: pos for pos, subset in enumerate(subsets)}
    rows = []
    for subset in subsets:
        row = [Fraction(0)] * len(subsets)
        for p, i in enumerate(subset):
            rest = subset[:p] + subset[p + 1 :]
            for t, x in enumerate(action[i]):
                if x and t not in rest:
                    image = tuple(sorted(rest + (t,)))
                    row[index[image]] += x if (image.index(t) - p) % 2 == 0 else -x
        rows.append(row)
    return rows


def rank(rows: list[list[Fraction]]) -> int:
    """The rank of a dense rational matrix, by Gaussian elimination."""
    rows = [list(row) for row in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def betti_numbers(doc: dict) -> dict:
    """``{"k": b_k}`` in every degree 0..n+1 of the total space of a symbol-free input."""
    action = modified_action(doc)
    n = len(action)
    ranks = [rank(wedge_derivation(action, k)) for k in range(n + 1)] + [0]
    return {str(k): comb(n, k) - ranks[k] + (comb(n, k - 1) - ranks[k - 1] if k else 0) for k in range(n + 2)}
