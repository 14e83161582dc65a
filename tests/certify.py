"""An independent check of the unipotent, cohomology and model claims of a report.

``verify`` recomputes a report with the same code that wrote it, so a bug in
that code verifies itself.  This module imports nothing from ``solvform``.

The input document's scalar fields are read as linear forms in 1 and the
symbols (:func:`linear_form`).  A complexified slot of a real coordinate has
the weight (re, 0, 0); a complex cell on coordinates (p, p+1) gives slot p
the weight (re, im_symbolic, im_resonant) and slot p+1 its conjugate, with
both imaginary parts negated.  A sum of weights is resonant when its real
part and symbolic imaginary part are zero forms and its resonant imaginary
part is an integer.

:func:`certify_unipotent` counts, by brute force over the k-subsets of the n
slots, the resonant degree-k complex monomials; ``unipotent/dims`` must
match.  Under the modification hypothesis (every rotation an integer with no
symbolic part) the imaginary parts never matter, so the degree-k basis is
the unit forms ``a_I``, one per k-subset I of coordinates whose real parts
sum to the zero form, in lexicographic order; ``unipotent/bases`` must be
exactly that list.

:func:`modified_action` builds the modified action from the document: each
block's real part on the diagonal, evaluated at given rational symbol values,
and its nilpotent shift above it, the integer rotations dropped, so that a
complex block of size m is two interleaved shift chains of length m.
:func:`wedge_derivation` extends it to the degree-k wedges by
:func:`derive_form`.  :func:`certify_cohomology` checks that the
derivation kills every ``cohomology/representatives`` entry that has no
``^ a(n+1)`` part, at three seeded rational points when the input has
symbols.  :func:`betti_numbers` reads a symbol-free document: the Lie algebra
cohomology of the total space is ``ker D_k (+) coker D_(k-1)``, with ``D_k``
the extended action, so ``b_k = (C(n, k) - rank D_k) + (C(n, k-1) - rank
D_(k-1))``, the ranks taken by a ``Fraction`` elimination written here.

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

import random
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


def linear_form(value) -> dict:
    """A scalar field such as ``"-1/2"``, ``"0.25"``, ``"2 - 3/4*b"`` or 3 as
    ``{"": constant, symbol: coefficient}``, zero entries dropped."""
    form: dict = {}
    for term in str(value).replace(" ", "").replace("-", "+-").split("+"):
        if term:
            coeff, _, name = term.rpartition("*") if "*" in term else ("", "", term)
            if re.fullmatch(r"-?[A-Za-z_]\w*", name):
                coeff, name = coeff or ("-1" if name[0] == "-" else "1"), name.lstrip("-")
            else:
                coeff, name = name, ""
            form[name] = form.get(name, 0) + Fraction(coeff)
    return {name: c for name, c in form.items() if c}


def _value(value, symbols: dict) -> Fraction:
    """A scalar field at the given rational symbol values."""
    total = Fraction(0)
    for name, c in linear_form(value).items():
        if name and name not in symbols:
            raise ValueError(f"the symbol {name} of {value!r} has no value")
        total += c * (symbols[name] if name else 1)
    return total


def _integer_rotation(block: dict) -> bool:
    """The modification hypothesis on one block: an integer rotation with no symbolic part."""
    integral = _value(block.get("im_resonant", "0"), {}).denominator == 1
    return integral and not linear_form(block.get("im_symbolic", "0"))


def slot_weights(doc: dict) -> list[tuple]:
    """The weight ``(re, im_symbolic, im_resonant)`` of each slot 0..n-1, the forms as dicts."""
    weights = []
    for block in doc["blocks"]:
        re_part = linear_form(block.get("re", "0"))
        im = (linear_form(block.get("im_symbolic", "0")), _value(block.get("im_resonant", "0"), {}))
        for _ in range(block["size"]):
            if block["kind"] == "real":
                weights.append((re_part, {}, Fraction(0)))
            else:
                weights.append((re_part, *im))
                weights.append((re_part, {name: -c for name, c in im[0].items()}, -im[1]))
    return weights


def _resonant(weights: list[tuple]) -> bool:
    re_sum: dict = {}
    im_sum: dict = {}
    for re_part, im_symbolic, _ in weights:
        for total, form in ((re_sum, re_part), (im_sum, im_symbolic)):
            for name, c in form.items():
                total[name] = total.get(name, 0) + c
    integral = sum(w[2] for w in weights).denominator == 1
    return integral and not any(re_sum.values()) and not any(im_sum.values())


def form_text(subset: tuple) -> str:
    """``a124`` for the 0-based subset (0, 1, 3), ``a(1,10)`` past index 9, ``1`` for ()."""
    if not subset:
        return "1"
    names = [str(i + 1) for i in subset]
    return "a" + "".join(names) if subset[-1] < 9 else "a(" + ",".join(names) + ")"


def certify_unipotent(doc: dict, section: dict) -> list[str]:
    """Every failed check of a report's ``unipotent`` section; [] certifies it."""
    n, weights = doc["n"], slot_weights(doc)
    hypothesis = all(_integer_rotation(block) for block in doc["blocks"] if block["kind"] == "complex")
    failures = []
    for k in range(n + 1):
        resonant = [form_text(s) for s in combinations(range(n), k) if _resonant([weights[i] for i in s])]
        if section["dims"].get(str(k)) != len(resonant):
            failures.append(f"degree {k}: dimension {section['dims'].get(str(k))}, not {len(resonant)}")
        basis = section["bases"].get(str(k)) or []
        if hypothesis and basis != resonant:
            failures += [f"degree {k}: {text} is not a resonant unit form" for text in basis if text not in resonant]
            failures += [f"degree {k}: the basis misses {text}" for text in resonant if text not in basis]
            if set(basis) == set(resonant):
                failures.append(f"degree {k}: the basis is not in lexicographic order")
    return failures


def modified_action(doc: dict, symbols: dict | None = None) -> list[list[Fraction]]:
    """The n x n modified action of an input document at rational symbol values;
    row i is the image of e_i."""
    n = doc["n"]
    action = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    for block in doc["blocks"]:
        if not _integer_rotation(block):
            raise ValueError(f"the rotation of {block} is not an integer resonance")
        step = 1 if block["kind"] == "real" else 2  # a complex cell is a pair of coordinates
        stop = start + step * block["size"]
        for c in range(start, stop):
            action[c][c] = _value(block.get("re", "0"), symbols or {})
            if c + step < stop:
                action[c][c + step] = Fraction(1)
        start = stop
    return action


def derive_form(action: list[list[Fraction]], form: dict) -> dict:
    """The derivation extending ``action`` applied to ``{sorted 0-based subset: coefficient}``.
    Putting e_t at position p of e_I and sorting moves it past ``|q - p|`` factors,
    where q is its sorted place."""
    out: dict = {}
    for subset, coeff in form.items():
        for p, i in enumerate(subset):
            rest = subset[:p] + subset[p + 1 :]
            for t, x in enumerate(action[i]):
                if x and t not in rest:
                    image = tuple(sorted(rest + (t,)))
                    out[image] = out.get(image, 0) + (coeff * x if (image.index(t) - p) % 2 == 0 else -coeff * x)
    return {key: c for key, c in out.items() if c}


def wedge_derivation(action: list[list[Fraction]], k: int) -> list[list[Fraction]]:
    """The derivation extending ``action`` to the degree-k wedges of e_0, ..., e_(n-1):
    row I is the image of e_I, over the sorted k-subsets."""
    subsets = list(combinations(range(len(action)), k))
    index = {subset: pos for pos, subset in enumerate(subsets)}
    rows = []
    for subset in subsets:
        row = [Fraction(0)] * len(subsets)
        for image, x in derive_form(action, {subset: 1}).items():
            row[index[image]] = x
        rows.append(row)
    return rows


_FORM_TERM = re.compile(r"(-?)(?:(\d+(?:/\d+)?)\*)?(?:a(\d+)|a\((\d+(?:,\d+)*)\)|(1))\Z")


def parse_form(text: str) -> dict:
    """``a12 - 2*a(3,10)`` as ``{(0, 1): 1, (2, 9): -2}``, 0-based; ``1`` is ``{(): 1}``."""
    form: dict = {}
    for term in text.replace(" - ", " + -").split(" + "):
        match = _FORM_TERM.match(term)
        if match is None:
            raise ValueError(f"not a form term: {term!r}")
        sign, coeff, digits, listed, unit = match.groups()
        indices = [int(d) for d in digits] if digits else [int(i) for i in listed.split(",")] if listed else []
        key = tuple(i - 1 for i in indices)
        form[key] = form.get(key, 0) + Fraction(coeff or 1) * (-1 if sign else 1)
    return {key: c for key, c in form.items() if c}


def certify_cohomology(doc: dict, section: dict) -> list[str]:
    """Every ``cohomology/representatives`` entry with no ``^ a(n+1)`` part that the
    modified action does not kill, at three seeded rational points of the symbols."""
    rng = random.Random(0)
    names = doc.get("symbols", [])
    points = [{name: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for name in names} for _ in range(3 if names else 1)]
    base = f" ^ a{doc['n'] + 1}"
    failures = []
    for symbols in points:
        action = modified_action(doc, symbols)
        for k, reps in section["representatives"].items():
            for text in reps:
                if not text.endswith(base) and derive_form(action, parse_form(text)):
                    failures.append(f"H^{k}: {text} is not closed at {symbols}")
    return failures


def certify_report(report: dict) -> list[str]:
    """The unipotent and cohomology checks of a report against its echoed input."""
    doc = report["input"]
    failures = []
    if "unipotent" in report:
        failures += [f"unipotent {line}" for line in certify_unipotent(doc, report["unipotent"])]
    if "cohomology" in report:
        failures += [f"cohomology {line}" for line in certify_cohomology(doc, report["cohomology"])]
    return failures


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
