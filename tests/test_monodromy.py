"""Unipotent-monodromy submodule: enumeration route vs. independent iteration."""

import json
import random
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from conftest import random_resonant_spec, random_unimodular_spec
from solvform import (
    AlmostAbelianSpec,
    Block,
    InputError,
    OracleUnavailable,
    build_minimal_model,
    build_twisted_model,
    generator_weights,
    nilpotent_log,
    nilpotent_submodule,
    nilpotent_submodule_oracle,
    parse_spec,
    resonance_test,
    spans_match,
)
from solvform.exterior import (
    LinearEndo,
    Multivector,
    algebra_map_apply,
    coordinate_vector,
    derivation_apply,
    exp_nilpotent,
    monomials,
    wedge,
)
from solvform.linalg import echelon_basis, map_kernel, matrix_mul
from solvform import monodromy
from solvform.errors import InternalInvariantViolation
from solvform.monodromy import (
    _index_map,
    _resonant_counts,
    _shift_row,
    _shift_slice,
    check_fiber_size,
    in_submodule_span,
    resonant_monomials,
    shift_slice,
)
from solvform.scalars import ScalarLC
from solvform.spectral import Weight
from solvform.symplectic import closed_two_classes


def test_resonance_examples(s8):
    slots = {s.slot: s for s in generator_weights(s8)}
    pair_46 = slots[4].weight + slots[6].weight
    assert resonance_test(pair_46)  # real parts b + (-b) cancel, rotations add to 2
    assert not resonance_test(slots[4].weight)  # bare b is nonzero
    assert resonance_test(Weight.zero())


def test_s6_is_full_exterior_algebra(s6):
    dims = [len(nilpotent_submodule(s6, k)) for k in range(6)]
    assert dims == [1, 5, 10, 10, 5, 1]
    for k in range(6):
        basis = nilpotent_submodule(s6, k)
        assert basis == [Multivector.monomial(5, key) for key in monomials(5, k)]


def test_s8_profile_and_generators(s8):
    dims = [len(nilpotent_submodule(s8, k)) for k in range(1, 8)]
    assert dims == [3, 7, 13, 13, 7, 3, 1]
    assert nilpotent_submodule(s8, 1) == [Multivector.basis_one_form(7, i) for i in (1, 2, 3)]
    u2 = nilpotent_submodule(s8, 2)
    assert u2 == [
        Multivector.monomial(7, key)
        for key in ((1, 2), (1, 3), (2, 3), (4, 6), (4, 7), (5, 6), (5, 7))
    ]
    assert nilpotent_submodule(s8, 7) == [Multivector.monomial(7, tuple(range(1, 8)))]


def test_symbolic_block_has_empty_degree_one():
    spec = parse_spec('{"n": 1, "symbols": ["b"], "blocks": [{"kind": "real", "size": 1, "re": "b"}]}')
    assert nilpotent_submodule(spec, 1) == []
    assert nilpotent_submodule(spec, 0) == [Multivector.unit(1)]


def test_degree_zero_and_top(s6, s8, torus4):
    for spec in (s6, s8, torus4):
        assert nilpotent_submodule(spec, 0) == [Multivector.unit(spec.n)]
        top = nilpotent_submodule(spec, spec.n)
        assert top == [Multivector.monomial(spec.n, tuple(range(1, spec.n + 1)))]


def test_oracle_equivalence_fixtures(s6, torus3, torus4, heisenberg3):
    for spec in (s6, torus3, torus4, heisenberg3):
        for k in range(spec.n + 1):
            assert spans_match(
                nilpotent_submodule(spec, k), nilpotent_submodule_oracle(spec, k)
            )


def test_oracle_equivalence_randomized():
    rng = random.Random(41)
    for _ in range(25):
        spec = random_resonant_spec(rng)
        for k in range(spec.n + 1):
            assert spans_match(
                nilpotent_submodule(spec, k), nilpotent_submodule_oracle(spec, k)
            )


def test_oracle_unavailable_for_symbolic_spectrum(s8):
    with pytest.raises(OracleUnavailable):
        nilpotent_submodule_oracle(s8, 1)


def _with_rotations(rng, spec):
    """The spec with each complex block's rotation redrawn: integer, 1/2-turn,
    1/3-turn, or with a symbolic part."""
    blocks = []
    for b in spec.blocks:
        if b.kind == "complex":
            im = rng.choice([b.im_resonant, Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3)])
            sym = rng.choice([ScalarLC(0), ScalarLC(0), ScalarLC.symbol("c", Fraction(1))])
            b = Block(b.kind, b.size, b.re, im, sym)
        blocks.append(b)
    return AlmostAbelianSpec(spec.n, tuple(blocks), symbols=("b", "c"))


def test_oracle_applicable_is_the_blockwise_condition(s6, s8, torus3, torus4, heisenberg3, nil322):
    rng = random.Random(46)
    specs = [s6, s8, torus3, torus4, heisenberg3, nil322]
    specs += [parse_spec(json.dumps(WEIGHT_COUNT_SPECS[name])) for name in ("nil7", "s10")]
    for _ in range(60):
        specs.append(_with_rotations(rng, random_resonant_spec(rng, n_max=7)))
        specs.append(_with_rotations(rng, random_unimodular_spec(rng, n_max=7)))
    seen = Counter()
    for spec in specs:
        blockwise = all(
            b.re.is_zero() and b.im_symbolic.is_zero() and b.im_resonant.denominator == 1
            for b in spec.blocks
        )
        assert monodromy.oracle_applicable(spec) == blockwise
        seen[blockwise] += 1
    assert seen[True] > 10 and seen[False] > 10


def test_oracle_zero_matrix_gives_everything(torus4):
    for k in range(4):
        assert len(nilpotent_submodule_oracle(torus4, k)) == len(monomials(3, k))


def _half_turn_monodromy(spec) -> LinearEndo:
    """Monodromy matrix for specs whose rotations are half or full turns.

    Built directly from block data (rotation by pi is -identity), then
    composed with the exponential of the shift; independent of the weight
    enumeration used by the package.
    """
    n = spec.n
    signs = [1] * (n + 1)
    for block, start in zip(spec.blocks, spec.block_starts()):
        if block.kind == "complex":
            sign = -1 if block.im_resonant % 1 == Fraction(1, 2) else 1
            for i in range(start, start + block.real_dim):
                signs[i] = sign
    unipotent = exp_nilpotent(nilpotent_log(spec))
    return LinearEndo(n, [unipotent.image_of(i).scaled(signs[i]) for i in range(1, n + 1)])


def _brute_unipotent_part(spec, k):
    phi = _half_turn_monodromy(spec)
    keys = monomials(spec.n, k)
    position = {key: pos for pos, key in enumerate(keys)}
    rows = []
    for pos, key in enumerate(keys):
        image = coordinate_vector(algebra_map_apply(phi, Multivector.monomial(spec.n, key)))
        row = {position[m]: c for m, c in image.items()}
        diagonal = row.pop(pos, Fraction(0)) - 1
        if diagonal:
            row[pos] = diagonal
        rows.append(row)
    power, kernel = rows, map_kernel(rows)
    for _ in range(len(keys)):
        power = matrix_mul(power, rows)
        bigger = map_kernel(power)
        if len(bigger) == len(kernel):
            break
        kernel = bigger
    return [
        Multivector(spec.n, k, {keys[i]: c for i, c in v.items()}) for v in echelon_basis(kernel)
    ]


def test_half_turn_rotations_against_direct_monodromy():
    # fractional resonances give a nontrivial submodule; the enumeration
    # must match a direct matrix computation of the nilpotently-acted part
    rng = random.Random(42)
    for _ in range(15):
        blocks = [Block("real", rng.randint(1, 2), ScalarLC(0))]
        used = blocks[0].size
        while used + 2 <= 5 and rng.random() < 0.8:
            blocks.append(
                Block("complex", 1, ScalarLC(0), Fraction(rng.choice([1, 1, 3]), 2), ScalarLC(0))
            )
            used += 2
        spec = AlmostAbelianSpec(used, tuple(blocks))
        for k in range(spec.n + 1):
            assert spans_match(nilpotent_submodule(spec, k), _brute_unipotent_part(spec, k))


def test_half_turn_pair_products_enter_in_degree_two():
    spec = AlmostAbelianSpec(
        2, (Block("complex", 1, ScalarLC(0), Fraction(1, 2), ScalarLC(0)),)
    )
    assert nilpotent_submodule(spec, 1) == []
    assert nilpotent_submodule(spec, 2) == [Multivector.monomial(2, (1, 2))]


def test_wedge_closure(s6, s8, heisenberg3):
    rng = random.Random(43)
    specs = [s6, s8, heisenberg3] + [random_unimodular_spec(rng, n_max=5) for _ in range(8)]
    checked = 0
    for spec in specs:
        bases = {k: nilpotent_submodule(spec, k) for k in range(spec.n + 1)}
        for i in range(1, spec.n):
            for j in range(i, spec.n + 1 - i):
                for a in bases[i]:
                    for b in bases[j]:
                        assert in_submodule_span(bases[i + j], wedge(a, b))
                        checked += 1
    assert checked >= 100


def test_realification_bookkeeping(s8):
    # real dimension equals the number of resonant complex monomials
    for k in range(1, 8):
        assert len(resonant_monomials(s8, k)) == len(nilpotent_submodule(s8, k))


def _basis_strings(text):
    spec = parse_spec(text)
    return [[str(v) for v in nilpotent_submodule(spec, k)] for k in range(spec.n + 1)]


def test_realification_signs_of_two_term_vectors():
    # third-turn rotations make z_p * z_q resonant only together with its
    # conjugate, so the basis holds real and imaginary parts with two terms
    # each; the signs follow from z = a_p - i*a_(p+1)
    twin = (
        '{"n": 4, "blocks": [{"kind": "complex", "size": 1, "im_resonant": "1/3"},'
        ' {"kind": "complex", "size": 1, "im_resonant": "1/3"}]}'
    )
    assert _basis_strings(twin) == [
        ["1"],
        [],
        ["a12", "a13 + a24", "a14 - a23", "a34"],
        [],
        ["a1234"],
    ]
    mixed = _basis_strings(
        '{"n": 5, "blocks": [{"kind": "real", "size": 1},'
        ' {"kind": "complex", "size": 1, "im_resonant": "1/3"},'
        ' {"kind": "complex", "size": 1, "im_resonant": "2/3"}]}'
    )
    assert mixed[2] == ["a23", "a24 - a35", "a25 + a34", "a45"]
    assert mixed[3] == ["a123", "a124 - a135", "a125 + a134", "a145"]


def _expand_by_wedges(n, slots, combo):
    """Oracle for the integer realification: wedge the slot generators as multivectors."""
    re, im = Multivector.unit(n), Multivector.zero(n, 0)
    for i in combo:
        conj = slots[i].conj
        if conj == i:
            s_re, s_im = Multivector.basis_one_form(n, i), Multivector.zero(n, 1)
        elif conj > i:  # z = a_p - i*a_(p+1)
            s_re, s_im = Multivector.basis_one_form(n, i), -Multivector.basis_one_form(n, conj)
        else:
            s_re, s_im = Multivector.basis_one_form(n, conj), Multivector.basis_one_form(n, i)
        re, im = re.wedge(s_re) - im.wedge(s_im), re.wedge(s_im) + im.wedge(s_re)
    return coordinate_vector(re), coordinate_vector(im)


def test_realify_matches_multivector_expansion():
    from solvform.monodromy import _realify

    rng = random.Random(44)
    checked = 0
    for _ in range(20):
        blocks, used = [], 0
        while used < 6:
            if used <= 4 and rng.random() < 0.6:
                turn = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 4]))
                blocks.append(Block("complex", 1, ScalarLC(0), turn, ScalarLC(0)))
                used += 2
            else:
                blocks.append(Block("real", 1, ScalarLC(0)))
                used += 1
        spec = AlmostAbelianSpec(used, tuple(blocks))
        slots = {s.slot: s for s in generator_weights(spec)}
        for k in range(spec.n + 1):
            for combo in resonant_monomials(spec, k):
                re, im = _realify(slots, combo)
                assert (re, im) == _expand_by_wedges(spec.n, slots, combo)
                checked += 1
    assert checked >= 200


# larger specs for the weight-count enumeration; nil7 and nil322 are the
# benchmark's nilpotent inputs, the rest are the ROADMAP baseline instances
WEIGHT_COUNT_SPECS = {
    "nil7": {"n": 7, "blocks": [{"kind": "real", "size": 7}]},
    "nil322": {
        "n": 7,
        "blocks": [{"kind": "real", "size": 3}, {"kind": "real", "size": 2}, {"kind": "real", "size": 2}],
    },
    "s10": {
        "n": 9,
        "symbols": ["b"],
        "blocks": [
            {"kind": "real", "size": 3},
            {"kind": "complex", "size": 1, "re": "b", "im_resonant": "1"},
            {"kind": "complex", "size": 1, "re": "-b", "im_resonant": "1"},
            {"kind": "complex", "size": 1, "im_resonant": "1"},
        ],
    },
    "s12": {
        "n": 11,
        "symbols": ["b", "c"],
        "blocks": [
            {"kind": "real", "size": 3},
            {"kind": "complex", "size": 1, "re": "b", "im_resonant": "1"},
            {"kind": "complex", "size": 1, "re": "-b", "im_resonant": "1"},
            {"kind": "complex", "size": 1, "re": "c", "im_resonant": "1"},
            {"kind": "complex", "size": 1, "re": "-c", "im_resonant": "1"},
        ],
    },
    "nil11": {
        "n": 11,
        "blocks": [{"kind": "real", "size": 4}, {"kind": "real", "size": 4}, {"kind": "real", "size": 3}],
    },
    "nil13": {
        "n": 13,
        "blocks": [{"kind": "real", "size": 5}, {"kind": "real", "size": 4}, {"kind": "real", "size": 4}],
    },
}


def _weight_count_specs(fixtures):
    rng = random.Random(45)
    specs = list(fixtures)
    specs += [parse_spec(json.dumps(doc)) for doc in WEIGHT_COUNT_SPECS.values()]
    specs += [random_resonant_spec(rng, n_max=7) for _ in range(60)]
    specs += [random_unimodular_spec(rng, n_max=7) for _ in range(60)]
    return specs


def _brute_resonant_monomials(spec):
    """Every slot subset with resonant weight sum, by degree: each subset's sum
    is its prefix subset's sum plus one slot weight, with no grouping."""
    slots = generator_weights(spec)
    by_degree = [[] for _ in range(spec.n + 1)]

    def visit(start, combo, total):
        if resonance_test(total):
            by_degree[len(combo)].append(combo)
        for pos in range(start, len(slots)):
            s = slots[pos]
            visit(pos + 1, combo + (s.slot,), total + s.weight)

    visit(0, (), Weight.zero())
    return [sorted(kept) for kept in by_degree]


def test_resonant_monomials_match_subset_enumeration(s6, s8, torus3, torus4, heisenberg3):
    for spec in _weight_count_specs((s6, s8, torus3, torus4, heisenberg3)):
        expected = _brute_resonant_monomials(spec)
        assert [resonant_monomials(spec, k) for k in range(spec.n + 1)] == expected
        assert resonant_monomials(spec, spec.n + 1) == []


def test_resonant_monomials_add_one_weight_per_count_vector(
    monkeypatch, s6, s8, torus3, torus4, heisenberg3
):
    added = 0
    plain_add = Weight.__add__

    def counting_add(self, other):
        nonlocal added
        added += 1
        return plain_add(self, other)

    monkeypatch.setattr(Weight, "__add__", counting_add)
    for spec in _weight_count_specs((s6, s8, torus3, torus4, heisenberg3)):
        sizes = Counter(s.weight for s in generator_weights(spec)).values()
        bound = prod(size + 1 for size in sizes)
        _resonant_counts.cache_clear()
        added = 0
        for k in range(spec.n + 1):
            resonant_monomials(spec, k)
        assert added <= bound


def test_shift_out_of_the_slice_is_caught(monkeypatch, s8):
    # the degree-1 slice of s8 is spanned by a1, a2, a3; a shift sending
    # a1 to a4 (weight b, not resonant) leaves it
    images = [Multivector.zero(7, 1) for _ in range(7)]
    images[0] = Multivector.basis_one_form(7, 4)
    monkeypatch.setattr(monodromy, "nilpotent_log", lambda spec: LinearEndo(7, images))
    _shift_slice.cache_clear()
    try:
        with pytest.raises(InternalInvariantViolation, match="out of the unipotent slice"):
            shift_slice(s8, 1)
    finally:
        _shift_slice.cache_clear()


def _random_raising_index_map(rng, n) -> LinearEndo:
    images = [Multivector.zero(n, 1) for _ in range(n)]
    for i in range(1, n):
        if rng.random() < 0.6:
            images[i - 1] = Multivector.basis_one_form(n, rng.randint(i + 1, n))
    return LinearEndo(n, images)


def test_tuple_shift_matches_the_derivation_route(s6, s8, torus3, torus4, heisenberg3):
    rng = random.Random(46)
    specs = [s6, s8, torus3, torus4, heisenberg3]
    specs += [parse_spec(json.dumps(WEIGHT_COUNT_SPECS[name])) for name in ("nil7", "nil322", "s10")]
    specs += [random_resonant_spec(rng, n_max=7) for _ in range(60)]
    specs += [random_unimodular_spec(rng, n_max=7) for _ in range(60)]
    # the package's shifts move an index by one or two; random maps jump further
    cases = [(nilpotent_log(spec), spec) for spec in specs]
    cases += [(_random_raising_index_map(rng, 7), None) for _ in range(20)]
    checked = 0
    for shift, spec in cases:
        index_map = _index_map(shift)
        for k in range(shift.n + 1):
            vectors = [Multivector.monomial(shift.n, key) for key in monomials(shift.n, k)]
            vectors += nilpotent_submodule(spec, k) if spec else []
            for u in vectors:
                assert _shift_row(u.terms, index_map) == coordinate_vector(derivation_apply(shift, u))
                checked += 1
    assert checked > 10_000


@pytest.mark.parametrize(
    "image",
    [
        Multivector.basis_one_form(7, 2).scaled(2),
        Multivector.basis_one_form(7, 2) + Multivector.basis_one_form(7, 3),
        Multivector.basis_one_form(7, 1),
    ],
    ids=["coefficient 2", "two terms", "fixed index"],
)
def test_shift_that_is_not_an_index_raising_map_is_caught(monkeypatch, s8, image):
    images = [Multivector.zero(7, 1) for _ in range(7)]
    images[0] = image
    monkeypatch.setattr(monodromy, "nilpotent_log", lambda spec: LinearEndo(7, images))
    _shift_slice.cache_clear()
    try:
        with pytest.raises(InternalInvariantViolation, match="not to a later a_j"):
            shift_slice(s8, 1)
    finally:
        _shift_slice.cache_clear()


@pytest.mark.parametrize("name", ["nil322", "s10"])
def test_shift_slices_and_closed_two_forms_carry_fractions(name):
    # the elimination keeps integral entries as ints; the forms built from
    # its rows store every coefficient as a Fraction all the same
    spec = parse_spec(json.dumps(WEIGHT_COUNT_SPECS[name]))
    forms = closed_two_classes(spec)
    for k in range(spec.n + 1):
        kernel, cokernel = shift_slice(spec, k)
        forms += kernel + cokernel
    assert len(forms) > spec.n
    for form in forms:
        assert all(type(coeff) is Fraction for coeff in form.terms.values()), form


def test_unit_row_slices_skip_elimination(monkeypatch, nil322, s6):
    # every slot of nil322 is real, so each slice is its sorted unit rows;
    # s6 has complex slots, whose two-term rows still go through elimination
    calls = []
    plain = monodromy.echelon_basis

    def counting(vectors):
        calls.append(len(vectors))
        return plain(vectors)

    monkeypatch.setattr(monodromy, "echelon_basis", counting)
    monodromy._nilpotent_submodule.cache_clear()
    try:
        for k in range(nil322.n + 1):
            basis = nilpotent_submodule(nil322, k)
            keys = [key for u in basis for key in u.terms]
            assert keys == resonant_monomials(nil322, k)
            assert all(u.terms == {key: 1} for u, key in zip(basis, keys))
        assert calls == []
        assert len(nilpotent_submodule(s6, 2)) == len(nilpotent_submodule_oracle(s6, 2))
        assert calls and calls[0] == len(resonant_monomials(s6, 2))
    finally:
        monodromy._nilpotent_submodule.cache_clear()


def test_in_submodule_span_rejects_vectors_outside(s8):
    basis = nilpotent_submodule(s8, 1)
    a = [Multivector.basis_one_form(7, i) for i in range(1, 8)]
    assert in_submodule_span(basis, a[0] + a[2].scaled(Fraction(-3, 2)))
    assert in_submodule_span(basis, Multivector.zero(7, 1))
    assert not in_submodule_span(basis, a[3])
    assert not in_submodule_span(basis, a[0] + a[4])
    assert not in_submodule_span([], a[0])


def test_low_slices_of_a_large_fiber_are_not_refused():
    # the size refusal sits at the report entry, which reads every degree;
    # the low slices of nil16 stay cheap to build from the library
    nil16 = parse_spec('{"n": 16, "blocks": [{"kind": "real", "size": 16}]}')
    assert len(nilpotent_submodule(nil16, 1)) == 16
    model = build_minimal_model(nil16, 2)
    assert len(model.gens) == 16
    build_twisted_model(nil16, model)
    with pytest.raises(InputError, match="the degree-8 unipotent slice has 12870"):
        check_fiber_size(nil16)
    check_fiber_size(parse_spec('{"n": 15, "blocks": [{"kind": "real", "size": 15}]}'))  # 6,435
