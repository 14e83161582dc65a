"""Shared fixtures: bundled instance documents and seeded random generators."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from solvform import AlmostAbelianSpec, Block, Multivector, ScalarLC, fixture_path, load_spec
from solvform.exterior import LinearEndo, monomials


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
            re = ScalarLC.symbol(symbols[0], q)
        else:
            re = ScalarLC(q)
        blocks.append(Block("real", 1, re))
        blocks.append(Block("real", 1, -re))
        used += 2
    while n_max - used >= 2 and rng.random() < 0.5:
        blocks.append(Block("complex", 1, ScalarLC(0), Fraction(rng.randint(0, 2)), ScalarLC(0)))
        used += 2
    return AlmostAbelianSpec(used, tuple(blocks), symbols=tuple(symbols))


@pytest.fixture
def rng():
    return random.Random(20260808)
