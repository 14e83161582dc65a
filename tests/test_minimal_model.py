"""Staged minimal model construction and its structural invariants."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from conftest import (
    leibniz,
    model_cohomology,
    monomials_over,
    random_resonant_spec,
    random_unimodular_spec,
    rank,
    reference_class_reps,
    reference_cocycles,
    solve_combination,
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
from solvform import minimal_model, monodromy
from solvform.exterior import coordinate_vector, derivation_apply, primitive_part
from solvform.linalg import (
    EchelonAccumulator,
    echelon_basis,
    map_kernel,
    matrix_mul,
)
from solvform.minimal_model import ClassRep, MinimalModel
from solvform.monodromy import _shift_slice
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
        formality_from_twisted(build_twisted_model(model), bound)
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


# outside the modification hypothesis: fractional rotations with multi-term slices
_FRAC3 = (
    '{"n": 8, "blocks": [{"kind": "complex", "size": 2, "im_resonant": "1/3"},'
    ' {"kind": "complex", "size": 1, "im_resonant": "1/3"}, {"kind": "real", "size": 2}]}'
)
_FRAC4 = (
    '{"n": 10, "blocks": [{"kind": "complex", "size": 3, "im_resonant": "1/4"},'
    ' {"kind": "complex", "size": 1, "im_resonant": "1/2"}, {"kind": "real", "size": 2}]}'
)


def _pairs(reps):
    return [(rep.poly, rep.rho) for rep in reps]


def test_kept_cohomology_equals_elimination_from_scratch(s6, s8, torus3, torus4, heisenberg3, s10, nil322):
    # the build keeps each degree's cocycles, images, classes and realized rows,
    # extending them by the four rules, up to degree bound + 1, which the last
    # killing round reads, or up to the stage where it stops (past it no degree
    # has a monomial); on the finished model they must be the from-scratch
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
        images = dict(model._images)
        for k in range(1, bound + 2):
            built = k in model._cocycles and k in model._classes
            assert built or not model.monomials(k), (spec, k)
            assert model.cocycles(k) == reference_cocycles(model, k)
            reference = reference_class_reps(model, k)
            assert _pairs(model.class_reps(k)) == _pairs(reference)
            realized, expected = model._realized[k], _accumulated(reference)
            assert (realized.rows, realized.pivots) == (expected.rows, expected.pivots), (spec, k)
        for k, image in images.items():
            assert (image.rows, image.pivots) == _full_image(model, k), (spec, k)
        for gen in model.gens:
            if gen.closed:
                kept = model.class_reps(gen.degree)
                before = [rep for rep in kept if min(rep.poly) < (gen.gid,)]
                assert kept[: len(before)] == before
                expected = reference_class_reps(model, gen.degree, range(gen.gid))
                assert _pairs(before) == _pairs(expected)
                prefixes += 1
    assert prefixes > 200


def _check_kept(model, spec):
    """Every entry the model keeps is the from-scratch one."""
    for k, cocycles in model._cocycles.items():
        assert cocycles == reference_cocycles(model, k), (spec, k)
    for k, image in model._images.items():
        assert (image.rows, image.pivots) == _full_image(model, k), (spec, k)
    for k, reps in model._classes.items():
        assert _pairs(reps) == _pairs(reference_class_reps(model, k)), (spec, k)
        realized, expected = model._realized[k], _accumulated(reps)
        assert (realized.rows, realized.pivots) == (expected.rows, expected.pivots), (spec, k)
    return len(model._cocycles) + len(model._images) + len(model._classes)


def test_kept_state_is_the_scratch_state_after_every_append(s8, nil322):
    # a build's generators replayed while classes of random degrees are formed:
    # entries of many degrees meet appends of lower degree, which must drop
    # exactly what they may grow, and cocycles() must re-certify only true bases
    rng = random.Random(71)
    cases = [(s8, 5), (parse_spec(_HAND_SPECS[0]), 5), (nil322, 3)]
    cases += [(random_resonant_spec(random.Random(seed), n_max=7), 4) for seed in range(20)]
    cases += [(random_unimodular_spec(random.Random(seed), n_max=6), 3) for seed in range(1000, 1010)]
    checked = 0
    for spec, bound in cases:
        model = MinimalModel(spec, bound)
        for g in build_minimal_model(spec, bound).gens:
            model.add_generator(g.degree, g.differential, g.rho)
            checked += _check_kept(model, spec)
            for k in rng.sample(range(1, bound + 3), 2):
                model.class_reps(k)
        checked += _check_kept(model, spec)
    assert checked > 2500


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
    model.add_generator(1, {(0, 1): 1})
    assert 1 in model._classes and 2 in model._images and 2 not in model._classes
    model.add_generator(1, {(0, 1): 1})
    assert 1 not in model._classes and 1 not in model._cocycles
    assert model.cocycles(1) == reference_cocycles(model, 1)
    assert len(model.cocycles(1)) == 3  # x, y and z - w
    for k in (1, 2):
        assert _pairs(model.class_reps(k)) == _pairs(reference_class_reps(model, k))
    results = verify_quasi_iso(model)
    assert {k: entry["ok"] for k, entry in results.items()} == _reference_quasi_iso(model)
    assert not results[1]["injective"]  # z - w realizes the zero form


def test_classes_formed_before_the_cocycles_one_degree_down(s8):
    # with no kept cocycles one degree down, the classes form them first, so
    # the image still skips their free rows and takes only independent ones;
    # the classes are still the from-scratch ones
    built = build_minimal_model(s8, 3)
    model = MinimalModel(s8, 4)
    for g in built.gens:
        model.add_generator(g.degree, g.differential, g.rho)
    assert 3 not in model._cocycles and 4 not in model._images
    assert _pairs(model.class_reps(4)) == _pairs(reference_class_reps(model, 4))
    assert model._cocycles[3] == reference_cocycles(model, 3)
    image = model._images[4]
    assert (image.rows, image.pivots) == _full_image(model, 4)
    assert image.rank == len(model.monomials(3)) - len(model._cocycles[3])


def test_dependent_new_row_eliminates_the_cocycles_again(monkeypatch, s6):
    # x, y closed of degree 1, then z with dz = x*y: the new degree-2 monomials
    # x*z and y*z have d = 0, so x*z and y*z are new cocycles and the set-aside
    # list [x*y] is no longer the basis; cocycles() must not re-certify it
    model = MinimalModel(s6, 2)
    for i in (1, 2):
        model.add_generator(1, rho=Multivector.basis_one_form(5, i))
    kept = model.cocycles(2)
    assert kept == [{(0, 1): 1}]
    z = model.add_generator(1, {(0, 1): 1})
    assert 2 not in model._cocycles and model._set_aside[2] is kept
    assert model.d_mono((0, z.gid)) == model.d_mono((1, z.gid)) == {}
    kernels = []
    plain = minimal_model.map_kernel
    monkeypatch.setattr(minimal_model, "map_kernel", lambda rows: kernels.append(rows) or plain(rows))
    assert model.cocycles(2) == reference_cocycles(model, 2)
    assert len(model.cocycles(2)) == 3 and len(kernels) == 1
    assert 2 not in model._set_aside and 3 not in model._images
    for k in (1, 2):
        assert _pairs(model.class_reps(k)) == _pairs(reference_class_reps(model, k))


def test_refusal_counts_before_the_new_rows_are_formed(monkeypatch, s8):
    # stage 4 of s8 counts 97 degree-5 monomials, then 145 once its killing
    # generators joined; a limit between them refuses the second round before
    # the re-certification forms d of any monomial holding one of those generators
    counts, models = [], set()
    plain_count, plain_d = minimal_model._monomial_count, MinimalModel.d_mono

    def counting(model, k):
        counts.append((k, plain_count(model, k)))
        return counts[-1][1]

    monkeypatch.setattr(minimal_model, "MAX_MODEL_MONOMIALS", 120)
    monkeypatch.setattr(minimal_model, "_monomial_count", counting)
    monkeypatch.setattr(MinimalModel, "d_mono", lambda model, mono: models.add(model) or plain_d(model, mono))
    with pytest.raises(InputError, match="degree 5 has 145 monomials, above the limit of 120"):
        build_minimal_model(s8, 4)
    assert counts[-2:] == [(5, 97), (5, 145)]
    (model,) = models
    killers = {g.gid for g in model.gens if g.degree == 4 and not g.closed}
    assert killers
    assert not any(killers.intersection(mono) for mono in model._d_cache)


def test_each_row_set_is_eliminated_once(monkeypatch, s8, nil322):
    # a killing round re-certifies its cocycles, so only the first round of a
    # stage eliminates them, and the realized rows are eliminated once per
    # degree, where the killing kernel, the next stage's flag order and the
    # quasi-iso check each eliminated them again: 6 cocycle kernels and 16
    # map_kernel calls for s8 at K=4, 10 and 23 for b2b2 at K=6, 3 and 9 for
    # nil322 at K=3.  s8 re-certifies in two stages, b2b2's rounds add no
    # monomial one degree up and keep the list, nil322 never kills
    eliminated, recertified, kernels, adds = [], [], [], []
    inside = []  # the degree of the cocycles() call under way
    plain_cocycles, plain_kernel = MinimalModel.cocycles, minimal_model.map_kernel
    plain_add = EchelonAccumulator.add

    def cocycles(model, k):
        set_aside = model._set_aside.get(k) if k not in model._cocycles else None
        inside.append(k)
        try:
            out = plain_cocycles(model, k)
        finally:
            inside.pop()
        if set_aside is not None and out is set_aside:
            recertified.append(k)
        return out

    def kernel(rows):
        kernels.append(rows)
        if inside:
            eliminated.append(inside[-1])
        return plain_kernel(rows)

    monkeypatch.setattr(MinimalModel, "cocycles", cocycles)
    monkeypatch.setattr(minimal_model, "map_kernel", kernel)
    monkeypatch.setattr(EchelonAccumulator, "add", lambda acc, v: adds.append(v) or plain_add(acc, v))
    models = []
    for spec, bound, cocycle_kernels, kept_again, kernel_calls in (
        (s8, 4, 4, 2, 10),
        (parse_spec(_HAND_SPECS[0]), 6, 6, 0, 13),
        (nil322, 3, 3, 0, 6),
    ):
        eliminated.clear()
        recertified.clear()
        kernels.clear()
        models.append(build_minimal_model(spec, bound))
        counts = (len(eliminated), len(recertified), len(kernels))
        assert counts == (cocycle_kernels, kept_again, kernel_calls), spec
    # outside the modification hypothesis the slices of degrees 2 and 3 are
    # multi-term, so the check reads their residues instead of the unit-slice test
    models.append(build_minimal_model(parse_spec(_FRAC3), 3))
    for model in models:
        adds.clear()
        results = verify_quasi_iso(model)
        assert adds == [] and all(entry["ok"] for entry in results.values())


def test_rounds_that_add_no_monomial_form_no_row_one_degree_up(monkeypatch):
    # b2b2 has no degree-1 generator, so the generators a killing round of
    # stage q appends add no degree-(q+1) monomial: the cocycles stay kept,
    # and the next round forms no d-row of degree q + 1
    events = []
    plain_count, plain_d = minimal_model._monomial_count, MinimalModel.d_mono
    complement = minimal_model._flag_ordered_complement

    def degree(model, mono):
        return sum(model.gens[g].degree for g in mono)

    monkeypatch.setattr(
        minimal_model, "_monomial_count", lambda model, k: events.append(("count", k)) or plain_count(model, k)
    )
    monkeypatch.setattr(
        MinimalModel, "d_mono", lambda model, mono: events.append(("d", degree(model, mono))) or plain_d(model, mono)
    )
    monkeypatch.setattr(
        minimal_model, "_flag_ordered_complement", lambda model, q, acc: events.append(("stage", q)) or complement(model, q, acc)
    )
    model = build_minimal_model(parse_spec(_HAND_SPECS[0]), 6)
    assert min(g.degree for g in model.gens) == 2
    rounds = []  # per round after a stage's first: its degree q + 1 and the d-rows it formed
    first, formed = True, None
    for kind, k in events:
        if kind == "stage":
            first, formed = True, None
        elif kind == "count":
            formed = None if first else []
            if not first:
                rounds.append((k, formed))
            first = False
        elif formed is not None:
            formed.append(k)
    assert len(rounds) == 4
    assert all(k not in formed for k, formed in rounds), rounds


def _tagged_kernel(model, k):
    """A degree-k cocycle basis by a route other than ``map_kernel``: each
    monomial's d-row, tagged with its position, is eliminated row by row, and
    the rows whose d part vanished carry the kernel in their tags."""
    domain = model.monomials(k)
    acc = EchelonAccumulator()
    for j, mono in enumerate(domain):
        row = {(0, c): x for c, x in model.d_mono(mono).items()}
        row[1, j] = 1
        acc.add(row)
    return [{domain[j]: x for (_, j), x in row.items()} for row in acc.rows if min(row)[0] == 1]


def _rereduced(model, k, basis):
    """``basis`` re-reduced by the byte rule of the kept cocycles: relabelled
    by reversed monomial order, echelonized, and relabelled back, so each
    vector is 1 at its last monomial and 0 at the others' last monomials,
    listed in the order of those monomials."""
    domain = model.monomials(k)
    rows = echelon_basis([{-domain.index(m): x for m, x in vec.items()} for vec in basis])
    return [{domain[-j]: x for j, x in row.items()} for row in reversed(rows)]


def test_kept_cocycles_follow_the_byte_rule(monkeypatch, s8, nil322):
    # any exact route to the degree-k cocycles, re-reduced with its leads at
    # the last monomial, gives the kept list byte for byte; so do the kept
    # lists themselves, those cocycles() re-certifies when it does so, and
    # every list the finished model keeps
    recertified = []
    plain = MinimalModel.cocycles

    def check(model, k, kept):
        assert _rereduced(model, k, kept) == kept == _rereduced(model, k, _tagged_kernel(model, k)), k

    def checking(model, k):
        set_aside = model._set_aside.get(k) if k not in model._cocycles else None
        out = plain(model, k)
        if set_aside is not None and out is set_aside:
            check(model, k, out)
            recertified.append(k)
        return out

    monkeypatch.setattr(MinimalModel, "cocycles", checking)
    cases = [(s8, bound) for bound in range(1, 7)]
    cases += [(parse_spec(_HAND_SPECS[0]), 6), (nil322, 5), (parse_spec(_FRAC3), 4), (parse_spec(_FRAC4), 4)]
    cases += [(random_resonant_spec(random.Random(seed), n_max=7), 4) for seed in range(60)]
    cases += [(random_unimodular_spec(random.Random(seed), n_max=7), 4) for seed in range(1000, 1060)]
    kept = 0
    for spec, bound in cases:
        model = build_minimal_model(spec, bound)
        for k, cocycles in model._cocycles.items():
            check(model, k, cocycles)
            kept += 1
    assert len(recertified) > 20 and kept > 500


def test_killing_rounds_per_stage(monkeypatch, s6, s8, nil322):
    # the build counts the monomials once per killing round: no stage of these
    # builds takes more than 2 rounds, far below the cap of 50 in
    # build_minimal_model, so a second round never finds a class to kill
    rounds = Counter()
    plain = minimal_model._monomial_count
    monkeypatch.setattr(
        minimal_model, "_monomial_count", lambda model, k: rounds.update([k - 1]) or plain(model, k)
    )
    cases = [(s6, 6), (s8, 6), (parse_spec(_HAND_SPECS[0]), 6), (nil322, 5)]
    cases += [(random_resonant_spec(random.Random(seed), n_max=7), 4) for seed in range(60)]
    cases += [(random_unimodular_spec(random.Random(seed), n_max=7), 4) for seed in range(1000, 1060)]
    stages = Counter()
    for spec, bound in cases:
        rounds.clear()
        build_minimal_model(spec, bound)
        assert max(rounds.values()) <= 2, (spec, rounds)
        stages.update(rounds.values())
    assert stages[2] > 40 and set(stages) == {1, 2}


@pytest.mark.parametrize("slots", [(2, 3, 4), (1, 2, 3, 4)])
def test_image_reaching_outside_the_slice_is_not_onto(s8, slots):
    # the degree-1 slice of s8 is a1, a2, a3; closed generators realizing
    # a2, a3 and a4 have its rank, and a1 to a4 contain it, but a4 lies outside
    model = MinimalModel(s8, 1)
    for i in slots:
        model.add_generator(1, rho=Multivector.basis_one_form(7, i))
    assert verify_quasi_iso(model)[1] == {
        "model_classes": len(slots), "target_dim": 3, "injective": True, "surjective": False, "ok": False
    }
    assert not _reference_quasi_iso(model)[1]


def test_truncated_model_fails_verification(s8):
    model = build_minimal_model(s8, 2)
    truncated = MinimalModel(model.spec, model.degree_bound)
    for g in model.gens[:-1]:  # drop one degree-2 generator
        truncated.add_generator(g.degree, g.differential, g.rho)
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
    # by wedging on its last; both must equal the per-factor Leibniz expansion
    # and the wedge of the generator realizations, and d_poly, the sum of the
    # memoized images, must equal the expansion of a whole polynomial
    rng = random.Random(65)
    cases = [(s8, 3), (s8, 5)] + [(random_unimodular_spec(rng, n_max=6), 3) for _ in range(6)]
    checked = 0
    for spec, bound in cases:
        model = build_minimal_model(spec, bound)
        differential = [g.differential for g in model.gens].__getitem__
        for k in range(1, bound + 2):
            monos = model.monomials(k)
            for mono in monos:
                d = model.d_mono(mono)
                assert d == leibniz(model, differential, {mono: 1}, 1)
                assert not model.d_poly(d)
                direct = Multivector.unit(spec.n)
                for gid in mono:
                    direct = wedge(direct, model.gens[gid].rho)
                assert model.rho_poly({mono: Fraction(1)}) == coordinate_vector(direct)
                checked += 1
            if monos:
                poly = {m: rng.randint(-3, 3) for m in rng.sample(monos, min(5, len(monos)))}
                assert model.d_poly(poly) == leibniz(model, differential, poly, 1)
    assert checked > 900


def test_monomials_of_a_high_degree_take_no_recursion(s6):
    # missing degrees are filled in a loop from the lower ones, so a degree far
    # above the recursion limit costs no stack, and is empty past the odd sum
    model = MinimalModel(s6, 1)
    for _ in range(5):
        model.add_generator(1)
    assert model.monomials(5000) == []
    assert model.monomials(5) == [(0, 1, 2, 3, 4)]
    assert [len(model.monomials(k)) for k in range(7)] == [1, 5, 10, 10, 5, 1, 0]


def test_build_stops_once_no_stage_can_add_a_generator(monkeypatch, torus3, torus4, s6, heisenberg3):
    # with odd generators only no monomial lies above the sum of their degrees,
    # and the target is empty above degree n: the build stops at the larger one
    stages = []
    complement = minimal_model._flag_ordered_complement
    monkeypatch.setattr(
        minimal_model, "_flag_ordered_complement", lambda *args: stages.append(args[1]) or complement(*args)
    )
    for spec in (torus3, torus4, s6, heisenberg3):
        stages.clear()
        model = build_minimal_model(spec, 200)
        assert all(g.degree % 2 for g in model.gens)
        assert stages == list(range(1, max(spec.n, sum(g.degree for g in model.gens)) + 1))
        assert all(status["ok"] for status in verify_quasi_iso(model).values())
    # an even generator keeps every stage (b2b2 has four of degree 2)
    stages.clear()
    model = build_minimal_model(parse_spec(_HAND_SPECS[0]), 6)
    assert not all(g.degree % 2 for g in model.gens)
    assert stages == list(range(1, 7))


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
    model.add_generator(1, {(0, 1): Fraction(1, 2)})
    v = model.add_generator(2, {(0, 1, 2): Fraction(1, 2)})
    w = model.add_generator(2, {(0, 1, 2): Fraction(4, 2)})
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
    gen = model.add_generator(degree=2)
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
    order = minimal_model._flag_ordered_complement(MinimalModel(spec, 1), 1, _accumulated(image_reps))
    assert order == [a[2], a[4], a[1]]
    assert order == _reference_flag_order(spec, 1, image_reps)


def test_image_that_is_not_shift_stable_is_caught():
    spec = _jordan3_plus_one()
    image_reps = [ClassRep({}, coordinate_vector(Multivector.basis_one_form(4, 2)))]  # N(a2) = a3 is outside
    with pytest.raises(InternalInvariantViolation, match="not shift-stable"):
        minimal_model._flag_ordered_complement(MinimalModel(spec, 1), 1, _accumulated(image_reps))


def _accumulated(reps):
    """The echelon form of the realizations of ``reps``, the image the build passes."""
    acc = EchelonAccumulator()
    for rep in reps:
        acc.add(rep.rho)
    return acc


def _stage_images(spec, bound):
    """Per stage q of the build: the realized classes its complement starts from,
    after checking that the build passes their echelon form."""
    stages = {}
    complement = minimal_model._flag_ordered_complement

    def recording(model, q, image_acc):
        stages[q] = list(model.class_reps(q))
        expected = _accumulated(stages[q])
        assert (image_acc.rows, image_acc.pivots) == (expected.rows, expected.pivots)
        return complement(model, q, image_acc)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(minimal_model, "_flag_ordered_complement", recording)
        model = build_minimal_model(spec, bound)
    return model, stages


def test_filled_slice_returns_no_complement_without_the_flag(monkeypatch, nil322):
    # the 21 and 35 realized classes of nil322 fill its degree-2 and degree-3
    # slices, so those stages build no span and shift no row; degree 1 has no
    # realized class and orders all seven slots
    model, stages = _stage_images(nil322, 3)
    adds, shifts = [], []
    plain_add, plain_shift = EchelonAccumulator.add, minimal_model._shift_row
    monkeypatch.setattr(EchelonAccumulator, "add", lambda acc, v: adds.append(v) or plain_add(acc, v))
    monkeypatch.setattr(minimal_model, "_shift_row", lambda row, m: shifts.append(row) or plain_shift(row, m))
    for q, size in ((2, 21), (3, 35)):
        image = _accumulated(stages[q])
        adds.clear()
        shifts.clear()
        assert len(stages[q]) == len(nilpotent_submodule(nil322, q)) == size
        assert minimal_model._flag_ordered_complement(model, q, image) == []
        assert adds == [] and shifts == []
    image = _accumulated(stages[1])
    adds.clear()
    shifts.clear()
    order = minimal_model._flag_ordered_complement(model, 1, image)
    assert len(order) == 7 and shifts
    assert order == _reference_flag_order(nil322, 1, stages[1])


def test_dependent_image_rows_take_the_flag_path():
    # as many realized classes as the slice has rows, but one row repeated: the
    # image does not fill the slice, and a1 is its complement
    spec = _jordan3_plus_one()
    a = [None] + [Multivector.basis_one_form(4, i) for i in range(1, 5)]
    image_reps = [ClassRep({}, coordinate_vector(a[i])) for i in (2, 3, 4, 4)]
    assert len(image_reps) == len(nilpotent_submodule(spec, 1))
    order = minimal_model._flag_ordered_complement(MinimalModel(spec, 1), 1, _accumulated(image_reps))
    assert order == [a[1]] == _reference_flag_order(spec, 1, image_reps)


def test_image_rows_outside_the_slice_take_the_flag_path(s8):
    # the rank of the s8 slice a1, a2, a3, but a4 lies outside it
    a = [None] + [Multivector.basis_one_form(7, i) for i in range(1, 8)]
    image_reps = [ClassRep({}, coordinate_vector(a[i])) for i in (2, 3, 4)]
    order = minimal_model._flag_ordered_complement(MinimalModel(s8, 1), 1, _accumulated(image_reps))
    assert order == [a[1]] == _reference_flag_order(s8, 1, image_reps)


def test_broken_shift_at_a_filled_degree_is_caught(monkeypatch, nil322):
    # a3 -> a4 joins the first two Jordan chains: the map stays nilpotent, so
    # degree 1 orders its slots without complaint, but its degree-2 kernel is
    # smaller than the sl2 weights of the filled degree-2 slice count
    assert _shift_index_map(nil322) == (0, 2, 3, 0, 5, 0, 7, 0)
    broken = (0, 2, 3, 4, 5, 0, 7, 0)
    for module in (monodromy, minimal_model):
        monkeypatch.setattr(module, "_shift_index_map", lambda spec: broken)
    _shift_slice.cache_clear()
    try:
        with pytest.raises(InternalInvariantViolation, match="degree-2 shift kernel"):
            build_minimal_model(nil322, 3)
    finally:
        _shift_slice.cache_clear()


def _images_with_counts(spec, bound):
    """Build the model, recording each image accumulator that ``class_reps``
    makes: its degree, the rows it took, and the monomials and cocycles one
    degree down when the cocycles were kept (None otherwise)."""

    class Counting(EchelonAccumulator):
        def __init__(self):
            super().__init__()
            self.taken = 0

        def add(self, v):
            self.taken += 1
            return super().add(v)

    made = []
    plain = MinimalModel.class_reps

    def recording(model, k):
        fresh = k not in model._images
        kept = model._cocycles.get(k - 1)
        below = None if kept is None else (len(model.monomials(k - 1)), len(kept))
        out = plain(model, k)
        if fresh:
            image = model._images[k]
            made.append((k, image.taken, below))
            assert (image.rows, image.pivots) == _full_image(model, k)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(minimal_model, "EchelonAccumulator", Counting)
        patch.setattr(MinimalModel, "class_reps", recording)
        model = build_minimal_model(spec, bound)
    return model, made


def _full_image(model, k):
    """Rows and pivots of the image of d fed every degree-(k-1) monomial."""
    image = EchelonAccumulator()
    for m in model.monomials(k - 1):
        image.add(model.d_mono(m))
    return image.rows, image.pivots


def test_image_takes_only_the_independent_rows(s8, nil322):
    # a kept cocycle's last monomial is a free column of the kernel elimination
    # (or a closed generator's unit, d = 0), so its d-row depends on the rows
    # before it; the image fed the other rows has the same reduced rows
    specs = [(s8, bound) for bound in range(1, 6)] + [(parse_spec(_HAND_SPECS[0]), 6), (nil322, 3)]
    specs += [(random_resonant_spec(random.Random(seed), n_max=7), 4) for seed in range(60)]
    specs += [(random_unimodular_spec(random.Random(seed), n_max=7), 4) for seed in range(1000, 1060)]
    skipped = 0
    for spec, bound in specs:
        model, made = _images_with_counts(spec, bound)
        # the build makes each image after the cocycles one degree down
        for k, taken, below in made:
            assert below is not None, (spec, k)
            monomials, cocycles = below
            assert taken == monomials - cocycles, (spec, k)
            skipped += cocycles
        for k, image in model._images.items():
            assert (image.rows, image.pivots) == _full_image(model, k), (spec, k)
    assert skipped > 1000


def _same_echelon(acc, expected, basis):
    """Rows, pivots, rank and the residue of every slice row agree."""
    rows = [coordinate_vector(u) for u in basis]
    return (acc.rows, acc.pivots, acc.rank, [acc.residue(r) for r in rows]) == (
        expected.rows, expected.pivots, expected.rank, [expected.residue(r) for r in rows]
    )


def test_unit_realizations_form_their_echelon_without_elimination(s6, s8, nil322):
    # distinct unit realizations, scaled to 1 and sorted by key, already are the
    # reduced echelon form; it must equal the accumulator the same rows feed, also
    # after the appends add_generator makes (a unit class, then a multi-term row)
    cases = [(s6, 6), (s8, 6), (nil322, 5), (parse_spec(_HAND_SPECS[0]), 6)]
    cases += [(random_resonant_spec(random.Random(seed), n_max=7), 4) for seed in range(60)]
    cases += [(random_unimodular_spec(random.Random(seed), n_max=7), 4) for seed in range(1000, 1060)]
    direct = appended = 0
    for spec, bound in cases:
        model = build_minimal_model(spec, bound)
        for k, realized in model._realized.items():
            reps = model._classes[k]
            expected = _accumulated(reps)
            basis = nilpotent_submodule(spec, k)
            assert _same_echelon(realized, expected, basis), (spec, k)
            keys = {key for rep in reps if len(rep.rho) == 1 for key in rep.rho}
            direct += bool(reps) and len(keys) == len(reps)
            free = [key for key in combinations(range(1, spec.n + 1), k) if key not in keys]
            if len(free) >= 2:
                for row in ({free[0]: 1}, {free[0]: 2, free[1]: -1}):
                    realized.add(row)
                    expected.add(row)
                    assert _same_echelon(realized, expected, basis), (spec, k)
                appended += 1
    assert direct > 400 and appended > 150


def test_repeated_or_multi_term_realizations_are_eliminated(monkeypatch, torus3):
    # closed degree-1 generators realized by a1, a2 and a1 + a2 give degree-2
    # classes realized by a12 three times (a repeated key); by a1 and a2 + a3,
    # one class realized by a12 + a13 (a multi-term row)
    def abs_row(row):
        return {key: abs(x) for key, x in row.items()}

    added = []
    plain = EchelonAccumulator.add
    monkeypatch.setattr(EchelonAccumulator, "add", lambda acc, row: added.append(row) or plain(acc, row))
    for rhos, realized in (([(1,), (2,), (1, 2)], [{(1, 2): 1}] * 3), ([(1,), (2, 3)], [{(1, 2): 1, (1, 3): 1}])):
        model = MinimalModel(torus3, 2)
        for indices in rhos:
            model.add_generator(1, rho=Multivector(3, 1, {(i,): 1 for i in indices}))
        added.clear()
        reps = model.class_reps(2)
        assert [abs_row(rep.rho) for rep in reps] == realized
        assert added == [rep.rho for rep in reps]
        expected = _accumulated(reps)
        assert _same_echelon(model._realized[2], expected, nilpotent_submodule(torus3, 2))
