"""An independent check of the model and total-model dumps of a report.

``verify`` recomputes a report with the same code that wrote it, so a bug in
that code verifies itself.  This module reads only the text of a report's
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

