"""Staged minimal model construction and its structural invariants."""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from conftest import (
    model_cohomology,
    monomials_over,
    random_resonant_spec,
    random_unimodular_spec,
    rank,
    reference_class_reps,
    reference_cocycles,
    wedge,
)
from solvform import (
    InputError,
    InternalInvariantViolation,
    Multivector,
    build_minimal_model,
    build_twisted_model,
    formality_from_twisted,
    nilpotent_submodule,
    serialize_model,
    verify_quasi_iso,
)
from solvform import minimal_model
from solvform.exterior import coordinate_vector, derivation_apply, primitive_part
from solvform.linalg import (
    EchelonAccumulator,
    echelon_basis,
    map_kernel,
    matrix_mul,
    solve_combination,
)
from solvform.minimal_model import ClassRep, MinimalModel
from solvform.spectral import _shift_index_map, nilpotent_log, parse_spec


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
        rho = Multivector(model.spec.n, 0, rep.rho)
        assert rep.rho == coordinate_vector(unit)
        assert rho == unit and str(rho) == str(unit)


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
    plain_kernel = minimal_model.map_kernel
    calls, kernels = [], []

    def recording(self, k):
        calls.append((k, len(self.gens)))
        return plain(self, k)

    def counting(rows):
        kernels.append(len(rows))
        return plain_kernel(rows)

    monkeypatch.setattr(MinimalModel, "class_reps", recording)
    monkeypatch.setattr(minimal_model, "map_kernel", counting)
    for spec, bound, expected in ((s8, 6, 10), (nil322, 3, 3)):
        calls.clear()
        model = build_minimal_model(spec, bound)
        assert len(set(calls)) == len(calls) == expected
        # the finished model keeps its classes and cocycles: the quasi-iso
        # check, the twist and the criterion form no basis again.  Forming
        # them again took 14 kernel eliminations over model monomials for
        # s8 and 10 for nil322 (one per degree in the check and in the
        # criterion, one per twisted closed generator)
        kept = [dict(state) for state in (model._cocycles, model._images, model._classes)]
        kernels.clear()
        verify_quasi_iso(model)
        formality_from_twisted(build_twisted_model(spec, model), bound)
        assert kernels == []
        for before, state in zip(kept, (model._cocycles, model._images, model._classes)):
            assert state.keys() == before.keys()
            assert all(state[k] is value for k, value in before.items())


_HAND_SPECS = (
    # formality fails first at degree 2 (b2b2, b2b2c) and at degree 3 (cpx2)
    '{"n": 4, "symbols": ["b"], "blocks": [{"kind": "real", "size": 2, "re": "b"},'
    ' {"kind": "real", "size": 2, "re": "-b"}]}',
    '{"n": 6, "symbols": ["b"], "blocks": [{"kind": "real", "size": 2, "re": "b"},'
    ' {"kind": "real", "size": 2, "re": "-b"}, {"kind": "complex", "size": 1, "im_resonant": "1"}]}',
    '{"n": 6, "symbols": ["b"], "blocks": [{"kind": "complex", "size": 2, "re": "b",'
    ' "im_resonant": "1"}, {"kind": "real", "size": 2, "re": "-2*b"}]}',
)


def _pairs(reps):
    return [(rep.poly, rep.rho) for rep in reps]


def test_kept_cohomology_equals_elimination_from_scratch(s6, s8, torus3, torus4, heisenberg3, s10, nil322):
    # the build keeps each degree's cocycles and classes, extending them by
    # the append rules; on the finished model they must be the from-scratch
    # bases, rows and order both, and the classes leading before the unit of
    # a closed generator must be the classes of the generators created before it
    rng = random.Random(67)
    specs = [s6, s8, torus3, torus4, heisenberg3, s10, nil322] + [parse_spec(t) for t in _HAND_SPECS]
    specs += [random_resonant_spec(rng, n_max=7) for _ in range(20)]
    specs += [random_unimodular_spec(rng, n_max=7) for _ in range(20)]
    cases = [(spec, 4) for spec in specs] + [(s8, 6)]
    prefixes = 0
    for spec, bound in cases:
        model = build_minimal_model(spec, bound)
        for k in range(1, bound + 1):
            assert k in model._cocycles and k in model._classes, (spec, k)
            assert model.cocycles(k) == reference_cocycles(model, k)
            assert _pairs(model.class_reps(k)) == _pairs(reference_class_reps(model, k))
        for gen in model.gens:
            if gen.closed:
                kept = model.class_reps(gen.degree)
                before = [rep for rep in kept if min(rep.poly) < (gen.gid,)]
                assert kept[: len(before)] == before
                expected = reference_class_reps(model, gen.degree, range(gen.gid))
                assert _pairs(before) == _pairs(expected)
                prefixes += 1
    assert prefixes > 200


def _reference_quasi_iso(model) -> dict:
    out = {}
    for k in range(1, model.degree_bound + 1):
        reps = reference_class_reps(model, k)
        target = [coordinate_vector(u) for u in nilpotent_submodule(model.spec, k)]
        image = rank([rep.rho for rep in reps])
        out[k] = image == len(reps) and image == len(target) == rank([rep.rho for rep in reps] + target)
    return out


def test_exact_differential_drops_the_kept_degree(s6):
    # x, y closed of degree 1, then z and w with dz = dw = x*y: dz is a new
    # boundary, so degree 1 stays; dw is not, so z - w is a new cocycle and
    # degree 1 is dropped and formed again
    model = MinimalModel(s6, 2)
    for i in (1, 2):
        model.add_generator(1, rho=Multivector.basis_one_form(5, i))
    assert _pairs(model.class_reps(1)) == _pairs(reference_class_reps(model, 1))
    model.class_reps(2)
    model.add_generator(1, {(0, 1): 1}, closed=False)
    assert 1 in model._classes and 2 in model._images and 2 not in model._classes
    model.add_generator(1, {(0, 1): 1}, closed=False)
    assert 1 not in model._classes and 1 not in model._cocycles
    assert model.cocycles(1) == reference_cocycles(model, 1)
    assert len(model.cocycles(1)) == 3  # x, y and z - w
    for k in (1, 2):
        assert _pairs(model.class_reps(k)) == _pairs(reference_class_reps(model, k))
    results = verify_quasi_iso(model)
    assert {k: entry["ok"] for k, entry in results.items()} == _reference_quasi_iso(model)
    assert not results[1]["injective"]  # z - w realizes the zero form


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
            assert model.rho_poly(g.differential) == {}


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
        rho_p, rho_q = (
            Multivector(s8.n, sum(model.gens[g].degree for g in next(iter(x))), model.rho_poly(x))
            for x in (p, q)
        )
        assert lhs == coordinate_vector(wedge(rho_p, rho_q))
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
    # d of a monomial is memoized by the product rule on its first factor, rho
    # by wedging on its last; both must equal the per-factor Leibniz expansion,
    # which d_poly keeps, and the wedge of the generator realizations
    rng = random.Random(65)
    cases = [(s8, 3), (s8, 5)] + [(random_unimodular_spec(rng, n_max=6), 3) for _ in range(6)]
    checked = 0
    for spec, bound in cases:
        model = build_minimal_model(spec, bound)
        for k in range(1, bound + 2):
            for mono in model.monomials(k):
                d = model.d_mono(mono)
                assert d == model.d_poly({mono: 1})
                assert not model.d_poly(d)
                direct = Multivector.unit(spec.n)
                for gid in mono:
                    direct = wedge(direct, model.gens[gid].rho)
                assert model.rho_poly({mono: Fraction(1)}) == coordinate_vector(direct)
                checked += 1
    assert checked > 900


def _int_when_integral(coefficients) -> set:
    """The coefficient types, after checking each is an int exactly when integral."""
    for x in coefficients:
        assert type(x) is (int if x.denominator == 1 else Fraction), x
    return set(map(type, coefficients))


def _model_coefficient_types(model, bound) -> set:
    """Types over every generator differential, every memoized d and rho of
    the monomials up to degree bound + 1 and every class up to the bound."""
    for k in range(1, bound + 2):
        for mono in model.monomials(k):
            model.d_mono(mono)
            model.rho_poly({mono: 1})
    seen = set()
    for k in range(bound + 1):
        for rep in model.class_reps(k):
            seen |= _int_when_integral(list(rep.poly.values()) + list(rep.rho.values()))
    for values in [g.differential for g in model.gens] + list(model._d_cache.values()):
        seen |= _int_when_integral(values.values())
    for values in model._rho_cache.values():
        seen |= _int_when_integral(values.values())
    return seen


def test_model_coefficients_are_int_when_integral(s8, s10):
    # coefficient types show in no report byte, so they are checked here
    rng = random.Random(66)
    cases = [(s8, 5), (s10, 4)] + [(random_unimodular_spec(rng, n_max=6), 4) for _ in range(20)]
    for spec, bound in cases:
        assert int in _model_coefficient_types(build_minimal_model(spec, bound), bound)


def test_fractional_model_coefficients_stay_fractions(s6):
    # no spec tried needs a fractional model coefficient, so one is built by
    # hand: x, y, u closed of degree 1; dz = x*y/2; dv = x*y*u/2 with v even,
    # so d(v^2) = 2 * v * dv has the integral coefficient 1
    model = MinimalModel(s6, 3)
    for i in (1, 2, 3):
        model.add_generator(1, rho=Multivector.basis_one_form(6, i))
    model.add_generator(1, {(0, 1): Fraction(1, 2)}, closed=False)
    v = model.add_generator(2, {(0, 1, 2): Fraction(1, 2)}, closed=False)
    w = model.add_generator(2, {(0, 1, 2): Fraction(4, 2)}, closed=False)
    assert type(w.differential[(0, 1, 2)]) is int
    assert model.d_mono((2, 3)) == {(0, 1, 2): Fraction(-1, 2)}
    d_square = model.d_mono((v.gid, v.gid))
    assert d_square == {(0, 1, 2, v.gid): 1} and type(d_square[(0, 1, 2, v.gid)]) is int
    assert _model_coefficient_types(model, 3) == {int, Fraction}
    # the killing and twist combinations
    (half,) = matrix_mul([{0: Fraction(1, 2), 1: Fraction(1, 2)}], [{(3,): 1}, {(3,): 1}])
    assert half == {(3,): 1} and type(half[(3,)]) is int
    rho = model.rho_poly({(0,): Fraction(1, 2), (1,): Fraction(4, 2)})
    assert rho == {(1,): Fraction(1, 2), (2,): 2} and type(rho[(2,)]) is int


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
    assert monomials_over(model, 6, gids) == _brute_force_monomials(model, 6, gids)


def test_monomial_count_matches_the_listed_monomials(s6, s8, torus3, torus4, heisenberg3, nil322):
    # the count the build checks before each class computation comes from the
    # generator degrees alone; odd generators enter at most once, even ones freely
    mixed = MinimalModel(s6, 9)
    for degree in [2, 1, 3, 2, 4, 1, 1, 6, 2, 5, 3]:
        mixed.add_generator(degree)
    models = [mixed] + [build_minimal_model(spec, 4) for spec in (s6, s8, torus3, torus4, heisenberg3, nil322)]
    for model in models:
        for k in range(10):
            assert minimal_model._monomial_count(model, k) == len(model.monomials(k))
    assert len(mixed.monomials(9)) > 100


def _reference_flag_order(spec, q, image_reps):
    """The closed degree-q generators through the matrix T of the shift on the
    quotient of the slice by the realized image: the complement is ordered
    along ker T, ker T^2, ..., with each power of T formed by multiplication."""
    image_acc = EchelonAccumulator()
    for rep in image_reps:
        image_acc.add(rep.rho)
    complement_vecs, reduced_c = [], []
    grow = EchelonAccumulator()
    for u in nilpotent_submodule(spec, q):
        vec = coordinate_vector(u)
        res = image_acc.residue(vec)
        if grow.add(res):
            complement_vecs.append(vec)
            reduced_c.append(res)
    ntl = nilpotent_log(spec)
    t_rows = []
    for vec in complement_vecs:
        image = derivation_apply(ntl, Multivector(spec.n, q, vec))
        coeffs, _ = solve_combination(reduced_c, image_acc.residue(coordinate_vector(image)))
        assert coeffs is not None
        t_rows.append(coeffs)
    m = len(complement_vecs)
    chosen, order = EchelonAccumulator(), []
    power = [{i: Fraction(1)} for i in range(m)]
    for _ in range(m + 1):
        if chosen.rank == m:
            break
        power = matrix_mul(power, t_rows)
        for x in echelon_basis(map_kernel(power)):
            if chosen.add(x):
                order.append(x)
    assert chosen.rank == m
    return [primitive_part(Multivector(spec.n, q, c)) for c in matrix_mul(order, complement_vecs)]


def test_closed_generators_follow_the_shift_flag(s6, s8, torus3, torus4, heisenberg3, nil322):
    rng = random.Random(14)
    cases = [(s6, 4), (s8, 6), (torus3, 4), (torus4, 4), (heisenberg3, 4), (nil322, 4)]
    cases += [(random_resonant_spec(rng, n_max=7), 4) for _ in range(10)]
    cases += [(random_unimodular_spec(rng, n_max=7), 4) for _ in range(10)]
    checked = 0
    for spec, bound in cases:
        model = build_minimal_model(spec, bound)
        shift = nilpotent_log(spec)
        for q in range(1, bound + 1):
            lower = [g.gid for g in model.gens if g.degree < q]
            image_reps = reference_class_reps(model, q, lower)
            closed = [g for g in model.gens if g.degree == q and g.closed]
            # the closed generators are the complement the T-matrix order gives
            assert [g.rho for g in closed] == _reference_flag_order(spec, q, image_reps)
            # the shift sends each one into the earlier ones plus the realized
            # image, which is what the twist on closed generators solves against
            span = EchelonAccumulator()
            for rep in image_reps:
                span.add(rep.rho)
            for g in closed:
                assert not span.residue(coordinate_vector(derivation_apply(shift, g.rho)))
                span.add(coordinate_vector(g.rho))
                checked += 1
    assert checked > 100


def test_shift_leaving_the_slice_is_caught_in_the_model_build(monkeypatch, s8):
    # the degree-1 slice of s8 is spanned by a1, a2, a3; a shift sending
    # a1 to a4 (weight b, not resonant) leaves it
    broken = list(_shift_index_map(s8))
    broken[1] = 4
    # the model build reads the shift through the per-spec index map
    monkeypatch.setattr(minimal_model, "_shift_index_map", lambda spec: tuple(broken))
    with pytest.raises(InternalInvariantViolation, match="left the invariant subspace"):
        build_minimal_model(s8, 1)


def _jordan3_plus_one():
    # the shift sends a1 -> a2 -> a3 and a4 -> 0
    return parse_spec('{"n": 4, "blocks": [{"kind": "real", "size": 3}, {"kind": "real", "size": 1}]}')


def test_shift_into_the_image_is_zero_on_the_complement():
    # with the image spanned by a3, N(a2) = a3 vanishes modulo the image, so a2
    # joins a4 in the first kernel; kernels of N^j on the bare complement rows
    # would put a4 alone first
    spec = _jordan3_plus_one()
    a = [None] + [Multivector.basis_one_form(4, i) for i in range(1, 5)]
    image_reps = [ClassRep({}, coordinate_vector(a[3]))]
    order = minimal_model._flag_ordered_complement(MinimalModel(spec, 1), 1, image_reps)
    assert order == [a[2], a[4], a[1]]
    assert order == _reference_flag_order(spec, 1, image_reps)


def test_image_that_is_not_shift_stable_is_caught():
    spec = _jordan3_plus_one()
    image_reps = [ClassRep({}, coordinate_vector(Multivector.basis_one_form(4, 2)))]  # N(a2) = a3 is outside
    with pytest.raises(InternalInvariantViolation, match="not shift-stable"):
        minimal_model._flag_ordered_complement(MinimalModel(spec, 1), 1, image_reps)
