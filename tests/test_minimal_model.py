"""Staged minimal model construction and its structural invariants."""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from conftest import random_unimodular_spec
from solvform import (
    InputError,
    Multivector,
    build_minimal_model,
    model_cohomology,
    nilpotent_submodule,
    serialize_model,
    verify_quasi_iso,
)
from solvform.exterior import coordinate_vector, wedge
from solvform.linalg import rank
from solvform.minimal_model import MinimalModel


def test_s6_model_is_free_on_five_degree_one_generators(s6):
    model = build_minimal_model(s6, 2)
    assert model.generator_counts() == {1: (5, 0)}
    assert all(not g.differential for g in model.gens)
    assert [str(g.rho) for g in model.gens] == ["a3", "a4", "a5", "a2", "a1"]


def test_s8_degree_one_stage(s8):
    model = build_minimal_model(s8, 1)
    assert model.generator_counts() == {1: (3, 0)}
    assert [str(g.rho) for g in model.gens] == ["a3", "a2", "a1"]


def test_s8_difficult_stage(s8):
    model = build_minimal_model(s8, 3)
    counts = model.generator_counts()
    assert counts[1] == (3, 0)
    assert counts[2] == (4, 0)
    closed_two = [g for g in model.gens if g.degree == 2 and g.closed]
    assert {str(g.rho) for g in closed_two} == {"a46", "a47", "a56", "a57"}
    # the number of degree-3 relation killers must match the brute-force
    # kernel of all degree-4 products of closed generators against the target
    non_closed_three = [g for g in model.gens if g.degree == 3 and not g.closed]
    assert len(non_closed_three) == _brute_force_relation_count(s8, model)


def _brute_force_relation_count(spec, model):
    """Independent expansion: degree-4 products of closed generators.

    Enumerates products directly (odd generators via combinations, even
    ones with repetition), wedges their realizations in the exterior
    algebra, and counts the kernel dimension of the resulting matrix.
    """
    ones = [g for g in model.gens if g.degree == 1 and g.closed]
    twos = [g for g in model.gens if g.degree == 2 and g.closed]
    images = []
    # (degree 1)^2 * (degree 2)
    for a, b in combinations(ones, 2):
        for w in twos:
            images.append(wedge(wedge(a.rho, b.rho), w.rho))
    # (degree 2)^2 with repetition
    for w1, w2 in combinations_with_replacement(twos, 2):
        images.append(wedge(w1.rho, w2.rho))
    # (degree 1)^4
    for quad in combinations(ones, 4):
        acc = Multivector.unit(spec.n)
        for g in quad:
            acc = wedge(acc, g.rho)
        images.append(acc)
    rows = [coordinate_vector(v) for v in images]
    return len(rows) - rank(rows)


def test_model_cohomology_dimensions(s6, s8):
    model6 = build_minimal_model(s6, 2)
    assert len(model_cohomology(model6, 2)) == 10
    assert len(model_cohomology(model6, 0)) == 1
    model8 = build_minimal_model(s8, 2)
    assert len(model_cohomology(model8, 2)) == 7
    with pytest.raises(InputError):
        model_cohomology(model8, 3)


def test_degree_zero_class_is_the_unit(s6, s8, torus3, heisenberg3):
    models = [build_minimal_model(spec, 2) for spec in (s6, s8, torus3, heisenberg3)]
    models.append(MinimalModel(s6, 1))  # no generators at all
    for model in models:
        (rep,) = model_cohomology(model, 0)
        assert rep.poly == {(): Fraction(1)}
        unit = Multivector.unit(model.spec.n)
        assert rep.rho == unit and str(rep.rho) == str(unit)


def test_degree_bound_validation(s6):
    with pytest.raises(InputError):
        build_minimal_model(s6, 0)


def test_quasi_isomorphism_on_fixtures(s6, s8, torus4, heisenberg3):
    for spec, bound in ((s6, 3), (s8, 3), (torus4, 3), (heisenberg3, 2)):
        model = build_minimal_model(spec, bound)
        results = verify_quasi_iso(model)
        assert all(entry["ok"] for entry in results.values())
        for k, entry in results.items():
            assert entry["target_dim"] == len(nilpotent_submodule(spec, k))


def test_quasi_isomorphism_random_specs():
    rng = random.Random(61)
    for _ in range(12):
        spec = random_unimodular_spec(rng, n_max=5)
        model = build_minimal_model(spec, 3)
        assert all(entry["ok"] for entry in verify_quasi_iso(model).values())


def test_build_forms_each_stage_classes_once(monkeypatch, s8, nil322):
    # stage q+1 starts from the classes the last killing round of stage q
    # formed on the same generators, so no (degree, generators) pair repeats
    plain = MinimalModel.class_reps
    calls = []

    def recording(self, k, gids=None):
        calls.append((k, None if gids is None else tuple(gids), len(self.gens)))
        return plain(self, k, gids)

    monkeypatch.setattr(MinimalModel, "class_reps", recording)
    for spec, bound, expected in ((s8, 6, 10), (nil322, 3, 3)):
        calls.clear()
        build_minimal_model(spec, bound)
        assert len(set(calls)) == len(calls) == expected


def test_truncated_model_fails_verification(s8):
    model = build_minimal_model(s8, 2)
    truncated = MinimalModel(model.spec, model.degree_bound)
    for g in model.gens[:-1]:  # drop one degree-2 generator
        truncated.add_generator(g.degree, g.differential, g.rho, g.closed)
    results = verify_quasi_iso(truncated)
    assert results[1]["ok"]
    assert not results[2]["ok"]


def test_minimality_no_linear_differential_terms(s6, s8):
    rng = random.Random(62)
    specs = [s6, s8] + [random_unimodular_spec(rng, n_max=5) for _ in range(8)]
    for spec in specs:
        model = build_minimal_model(spec, 3)
        for g in model.gens:
            for mono in g.differential:
                assert len(mono) >= 2
                assert all(other < g.gid for other in mono)


def test_differential_squares_to_zero_everywhere(s6, s8):
    rng = random.Random(63)
    specs = [s8] + [random_unimodular_spec(rng, n_max=5) for _ in range(8)]
    cases = 0
    for spec in specs:
        model = build_minimal_model(spec, 3)
        for g in model.gens:
            assert not model.d_poly(g.differential)
            cases += 1
        for _ in range(10):
            k = rng.randint(1, 3)
            monos = model.monomials(k)
            if not monos:
                continue
            poly = {m: Fraction(rng.randint(-2, 2)) for m in rng.sample(monos, min(3, len(monos)))}
            assert not model.d_poly(model.d_poly(poly))
            cases += 1
    assert cases >= 100


def test_realization_is_a_chain_map(s6, s8, heisenberg3):
    # the target differential vanishes, so rho of every generator
    # differential must be the zero form, not merely exact
    for spec in (s6, s8, heisenberg3):
        model = build_minimal_model(spec, 3)
        for g in model.gens:
            assert model.rho_poly(g.differential).is_zero()


def _random_poly(rng, model, degree, terms=2):
    monos = model.monomials(degree)
    out = {}
    for m in rng.sample(monos, min(terms, len(monos))):
        c = Fraction(rng.randint(-2, 2))
        if c:
            out[m] = c
    return out


def test_realization_is_multiplicative(s8):
    rng = random.Random(64)
    model = build_minimal_model(s8, 3)
    checked = 0
    while checked < 60:
        p = _random_poly(rng, model, rng.randint(1, 2))
        q = _random_poly(rng, model, rng.randint(1, 2))
        if not p or not q:
            continue
        lhs = model.rho_poly(model.p_mul(p, q))
        rhs = wedge(model.rho_poly(p), model.rho_poly(q))
        assert lhs == rhs or (lhs.is_zero() and rhs.is_zero())
        checked += 1


def test_serialize_model_is_stable(s6):
    model = build_minimal_model(s6, 2)
    assert serialize_model(model) == serialize_model(build_minimal_model(s6, 2))
    lines = serialize_model(model).splitlines()
    assert lines[0] == "degree bound 2"
    assert lines[1] == "generators: degree 1: 5 closed + 0 non-closed"
    assert lines[2] == "g1: degree 1, closed, d(g1) = 0, rho(g1) = a3"


def test_generator_counts_reported(s8):
    model = build_minimal_model(s8, 3)
    counts = model.generator_counts()
    assert sum(c + n for c, n in counts.values()) == len(model.gens)


def test_monomial_memos_match_direct_computation(s8):
    # d and rho of a monomial are memoized; both must equal the Leibniz
    # expansion and the wedge of the generator realizations
    model = build_minimal_model(s8, 3)
    for k in range(1, 5):
        for mono in model.monomials(k):
            assert model.d_mono(mono) == model.d_poly({mono: Fraction(1)})
            direct = Multivector.unit(s8.n)
            for gid in mono:
                direct = wedge(direct, model.gens[gid].rho)
            assert model.rho_poly({mono: Fraction(1)}).terms == direct.terms


def test_add_generator_keeps_lower_degree_monomials(s8):
    model = build_minimal_model(s8, 2)
    low, high = model.monomials(1), model.monomials(3)
    gen = model.add_generator(degree=2, closed=True)
    assert model.monomials(1) is low
    grown = model.monomials(3)
    assert set(high) < set(grown)
    assert any(gen.gid in mono for mono in grown)
    model._mono_cache.clear()
    assert model.monomials(3) == grown


def _brute_force_monomials(model, k, gids):
    """Sorted degree-k monomials over ``gids`` by filtering every multiset."""
    degree = {gid: model.gens[gid].degree for gid in gids}
    found = [()] if k == 0 else []
    for length in range(1, k + 1):
        # the other length - 1 factors have degree at least 1 each
        eligible = sorted(gid for gid in gids if degree[gid] <= k - (length - 1))
        for mono in combinations_with_replacement(eligible, length):
            if sum(degree[g] for g in mono) != k:
                continue
            if any(a == b and degree[a] % 2 for a, b in zip(mono, mono[1:])):
                continue
            found.append(mono)
    return sorted(found)


def test_monomials_of_many_generators_out_of_degree_order(s6):
    # more generators than the default recursion limit, the large blocks
    # created before the low-degree ones, so generator order is not degree order
    model = MinimalModel(s6, 9)
    degrees = [8] * 700 + [1, 3, 2, 1, 4, 2, 1, 6, 2, 5, 1] + [7] * 400 + [2, 1, 3]
    for degree in degrees:
        model.add_generator(degree)
    assert len(model.gens) > 1000
    everything = range(len(model.gens))
    for k in range(0, 9):
        monos = model.monomials(k)
        assert monos == _brute_force_monomials(model, k, everything)
    assert len(model.monomials(8)) > 700
    # not a prefix: the degree-7 block and the generators after it are left out
    gids = [gid for gid, degree in enumerate(degrees) if degree < 7 and gid < 1105]
    assert model.monomials(6, gids) == _brute_force_monomials(model, 6, gids)
