"""Shared fixtures: bundled instance documents, seeded random generators and test-only helpers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from solvform import (
    AlmostAbelianSpec,
    Block,
    CEElement,
    Multivector,
    ScalarLC,
    build_minimal_model,
    build_twisted_model,
    fixture_path,
    formality_from_twisted,
    load_spec,
    parse_spec,
)
from solvform.errors import InputError
from solvform.exterior import LinearEndo, coordinate_vector
from solvform.linalg import EchelonAccumulator, map_kernel, rref
from solvform.minimal_model import ClassRep
from solvform.oracle import monomials
from solvform.scalars import _canonical
from solvform.spectral import Weight


@pytest.fixture(scope="session")
def s6():
    return load_spec(fixture_path("s6"))


@pytest.fixture(scope="session")
def s8():
    return load_spec(fixture_path("s8"))


@pytest.fixture(scope="session")
def torus3():
    return load_spec(fixture_path("torus3"))


@pytest.fixture(scope="session")
def torus4():
    return load_spec(fixture_path("torus4"))


@pytest.fixture(scope="session")
def heisenberg3():
    return load_spec(fixture_path("heisenberg3"))


@pytest.fixture(scope="session")
def nil322():
    """Three nilpotent Jordan blocks of sizes 3, 2, 2 (not a bundled fixture)."""
    blocks = tuple(Block("real", size, ScalarLC(0)) for size in (3, 2, 2))
    return AlmostAbelianSpec(7, blocks)


@pytest.fixture(scope="session")
def s10():
    """A symbolic pair of resonant complex blocks beside a Jordan block (not bundled)."""
    return parse_spec(
        '{"n": 9, "symbols": ["b"], "blocks": [{"kind": "real", "size": 3},'
        ' {"kind": "complex", "size": 1, "re": "b", "im_resonant": "1"},'
        ' {"kind": "complex", "size": 1, "re": "-b", "im_resonant": "1"},'
        ' {"kind": "complex", "size": 1, "im_resonant": "1"}]}'
    )


def random_rational(rng, lo=-4, hi=4, den=3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_multivector(rng, n, degree, max_terms=3, symbols=()) -> Multivector:
    keys = monomials(n, degree)
    if not keys:
        return Multivector.zero(n, degree)
    chosen = rng.sample(keys, min(len(keys), rng.randint(0, max_terms)))
    terms = []
    for key in chosen:
        if symbols and rng.random() < 0.4:
            coeff = ScalarLC(random_rational(rng), [(rng.choice(symbols), random_rational(rng))])
        else:
            coeff = ScalarLC(random_rational(rng))
        terms.append((key, coeff))
    return Multivector(n, degree, terms)


def random_strict_endo(rng, n) -> LinearEndo:
    """Strictly index-raising (hence nilpotent) endomorphism of the 1-forms."""
    images = []
    for i in range(1, n + 1):
        terms = []
        for j in range(i + 1, n + 1):
            if rng.random() < 0.5:
                terms.append(((j,), ScalarLC(random_rational(rng))))
        images.append(Multivector(n, 1, terms))
    return LinearEndo(n, images)


def random_resonant_spec(rng, n_max=5) -> AlmostAbelianSpec:
    """Zero real parts, integer rotation resonances: the oracle's domain."""
    blocks = []
    used = 0
    while used < n_max:
        remaining = n_max - used
        if blocks and rng.random() < 0.3:
            break
        if remaining >= 2 and rng.random() < 0.5:
            size = rng.randint(1, remaining // 2)
            blocks.append(
                Block("complex", size, ScalarLC(0), Fraction(rng.randint(-2, 2)), ScalarLC(0))
            )
            used += 2 * size
        else:
            size = rng.randint(1, min(3, remaining))
            blocks.append(Block("real", size, ScalarLC(0)))
            used += size
    return AlmostAbelianSpec(used, tuple(blocks))


def random_unimodular_spec(rng, n_max=6, symbols=("b",)) -> AlmostAbelianSpec:
    """Trace-zero spec satisfying the modification hypothesis."""
    blocks = [Block("real", rng.randint(1, 2), ScalarLC(0))]
    used = blocks[0].size
    if n_max - used >= 2 and rng.random() < 0.7:
        q = random_rational(rng, 1, 3)
        if rng.random() < 0.5 and symbols:
            re = symbol(symbols[0], q)
        else:
            re = ScalarLC(q)
        blocks.append(Block("real", 1, re))
        blocks.append(Block("real", 1, -re))
        used += 2
    while n_max - used >= 2 and rng.random() < 0.5:
        blocks.append(Block("complex", 1, ScalarLC(0), Fraction(rng.randint(0, 2)), ScalarLC(0)))
        used += 2
    return AlmostAbelianSpec(used, tuple(blocks), symbols=tuple(symbols))


def in_submodule_span(basis: list[Multivector], x: Multivector) -> bool:
    """Membership of ``x`` in the span of an echelon ``basis`` (as returned by
    ``nilpotent_submodule`` and ``shift_slice``)."""
    span = EchelonAccumulator()
    for v in basis:
        span.add(coordinate_vector(v))
    return not span.residue(coordinate_vector(x))


def follows_the_coefficient_rule(coeff) -> bool:
    """Whether ``coeff`` is stored by the exact-coefficient rule: an ``int``
    exactly when integral, a ``Fraction`` otherwise, and a ``ScalarLC`` only
    while it carries a symbol."""
    if type(coeff) is ScalarLC:
        return bool(coeff.terms)
    return type(coeff) is (int if coeff.denominator == 1 else Fraction)


def representative_elements(slice_, n: int) -> list[CEElement]:
    """The representatives of a ``CohomologySlice`` as total forms: each kernel
    representative is a fiber form, each cokernel one the base part of ``rep ^ a``."""
    out = [CEElement(rep) for rep in slice_.kernel_reps]
    for rep in slice_.coker_reps:
        out.append(CEElement(Multivector.zero(n, rep.degree + 1), rep))
    return out


def symbol(name: str, coeff=1) -> ScalarLC:
    """The scalar ``coeff * name``."""
    return ScalarLC(0, [(name, Fraction(coeff))])


def zero_weight() -> Weight:
    """The weight of the unit monomial, the start of a sum of weights."""
    return Weight(ScalarLC(0), Fraction(0), ScalarLC(0))


def coordinate_re(spec: AlmostAbelianSpec, i: int) -> ScalarLC:
    """Real eigenvalue part attached to coordinate ``i``."""
    for block, start in zip(spec.blocks, spec.block_starts()):
        if start <= i < start + block.real_dim:
            return block.re
    raise ValueError(f"coordinate {i} out of range 1..{spec.n}")


def wedge(a: Multivector, b: Multivector) -> Multivector:
    return a.wedge(b)


def endo_is_zero(endo: LinearEndo) -> bool:
    return all(img.is_zero() for img in endo.images)


def endo_trace(endo: LinearEndo):
    """Trace of an endomorphism of the 1-forms, stored by the coefficient rule."""
    return _canonical(sum(img.coefficient((i,)) for i, img in enumerate(endo.images, start=1)))


def model_cohomology(model, k: int) -> list[ClassRep]:
    """Degree-k classes of the finished model (error above the bound)."""
    if k > model.degree_bound:
        raise InputError(f"degree {k} exceeds the model bound {model.degree_bound}")
    return model.class_reps(k)


def rank(rows) -> int:
    """Dimension of the span of the sparse ``rows``."""
    return len(rref(rows)[0])


def k_formality(spec, k: int, d_max=None):
    """Build the model and twist up to ``max(k, d_max)`` and run the criterion."""
    bound = max(k, d_max or k)
    model = build_minimal_model(spec, bound)
    return formality_from_twisted(build_twisted_model(spec, model), k)


def monomials_over(model, k: int, gids=None) -> list:
    """The sorted degree-k monomials of the model that use only ``gids`` (default all)."""
    if gids is None:
        return model.monomials(k)
    allowed = set(gids)
    return [m for m in model.monomials(k) if allowed.issuperset(m)]


def reference_cocycles(model, k: int, gids=None) -> list[dict]:
    """Degree-k cocycle basis over ``gids`` (default all), eliminated from
    scratch: the kernel of d on the sorted monomials, nothing kept."""
    domain = monomials_over(model, k, gids)
    kernel = map_kernel([model.d_mono(m) for m in domain])
    return [{domain[j]: c for j, c in vec.items()} for vec in kernel]


def reference_class_reps(model, k: int, gids=None) -> list[ClassRep]:
    """Echelonized degree-k classes over ``gids``, eliminated from scratch:
    the residues of the cocycles modulo the image of every degree-(k-1) monomial."""
    image = EchelonAccumulator()
    for m in monomials_over(model, k - 1, gids):
        image.add(model.d_mono(m))
    classes = EchelonAccumulator()
    for poly in reference_cocycles(model, k, gids):
        classes.add(image.residue(poly))
    return [ClassRep(poly, model.rho_poly(poly)) for poly in classes.rows]


@pytest.fixture
def rng():
    return random.Random(20260808)
