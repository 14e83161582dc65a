"""Unipotent-monodromy submodule: enumeration route vs. independent iteration."""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, product
from math import comb, prod

import pytest

from conftest import (
    follows_the_coefficient_rule,
    generator_weights,
    in_submodule_span,
    random_resonant_spec,
    random_unimodular_spec,
    resonance_test,
    symbol,
    wedge,
    zero_weight,
)
from solvform import (
    AlmostAbelianSpec,
    Block,
    InputError,
    OracleUnavailable,
    build_minimal_model,
    build_twisted_model,
    nilpotent_log,
    nilpotent_submodule,
    parse_spec,
)
from solvform.exterior import LinearEndo, Multivector, coordinate_vector, derivation_apply
from solvform.linalg import echelon_basis, map_kernel, matrix_mul, rref
from solvform import cli, monodromy, oracle
from solvform.errors import InternalInvariantViolation
from solvform.monodromy import (
    _resonant_counts,
    _shift_row,
    _shift_slice,
    check_fiber_size,
    resonant_monomials,
    shift_slice,
)
from solvform.oracle import (
    algebra_map_apply,
    exp_nilpotent,
    monomials,
    nilpotent_submodule_oracle,
    spans_match,
)
from solvform.scalars import ScalarLC
from solvform.spectral import _shift_index_map, _slot_table
from solvform.symplectic import closed_two_classes
from test_cohomology import _sl2_slot_weights
from test_formality import cross_check_specs
from test_golden_reports import MULTI_TERM, _digest_specs


def test_resonance_examples(s8):
    slots = {s.slot: s for s in generator_weights(s8)}
    pair_46 = slots[4].weight + slots[6].weight
    assert resonance_test(pair_46)  # real parts b + (-b) cancel, rotations add to 2
    assert not resonance_test(slots[4].weight)  # bare b is nonzero
    assert resonance_test(zero_weight())


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
            sym = rng.choice([ScalarLC(0), ScalarLC(0), symbol("c", Fraction(1))])
            b = Block(b.kind, b.size, b.re, im, sym)
        blocks.append(b)
    return AlmostAbelianSpec(spec.n, tuple(blocks), symbols=("b", "c"))


def test_slot_table_and_oracle_applicable_match_the_scalar_reference(
    s6, s8, torus3, torus4, heisenberg3
):
    # the table read off the blocks against the ScalarLC route it replaced: conj
    # and terms from generator_weights, sl2 from the Jordan chains, and
    # oracle_applicable from resonance_test on every slot weight
    seen = Counter()
    for spec in cross_check_specs((s6, s8, torus3, torus4, heisenberg3)):
        slots, sl2 = generator_weights(spec), _sl2_slot_weights(spec)
        assert list(_slot_table(spec)[1:]) == [(s.conj, s.terms, sl2[s.slot]) for s in slots], spec
        applicable = all(resonance_test(s.weight) for s in slots)
        assert monodromy.oracle_applicable(spec) == applicable, spec
        seen[applicable] += 1
    assert seen[True] > 10 and seen[False] > 10


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


def test_the_oracle_applies_only_where_every_slice_is_full(s6, torus3, torus4, heisenberg3):
    # oracle_applicable holds exactly when every slot weight is a resonance; every
    # monomial is then resonant, so the oracle and the benchmark's oracle gate only
    # ever compare full slices, and say nothing about a proper one
    specs = [s6, torus3, torus4, heisenberg3]
    specs += [random_resonant_spec(random.Random(seed), n_max=7) for seed in range(200)]
    specs += [random_unimodular_spec(random.Random(seed), n_max=7) for seed in range(200)]
    applicable = [spec for spec in specs if monodromy.oracle_applicable(spec)]
    assert len(applicable) == 4 + 260
    for spec in applicable:
        assert [len(nilpotent_submodule(spec, k)) for k in range(spec.n + 1)] == [
            comb(spec.n, k) for k in range(spec.n + 1)
        ]


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
        re, im = re.wedge(s_re) + (-im.wedge(s_im)), re.wedge(s_im) + im.wedge(s_re)
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
                re, im = _realify(_slot_table(spec), combo)
                assert (re, im) == _expand_by_wedges(spec.n, slots, combo)
                checked += 1
    assert checked >= 200


def _random_hypothesis_spec(rng) -> AlmostAbelianSpec:
    """A spec inside the modification hypothesis with at least one complex block:
    complex blocks of size 1-3 turning by an integer (0 and negative included), and
    real parts 0 or +-v, where v mixes a rational with one or two symbols, so that
    slots of different blocks resonate together."""
    q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    b, c = rng.choice([-2, -1, 1, 2]), rng.choice([0, -1, 3])
    v = [f"{x}{y:+d}*b" + (f"{z:+d}*c" if c else "") for x, y, z in ((q, b, c), (-q, -b, -c))]
    blocks, used, n_max = [], 0, rng.randint(2, 9)
    while used < n_max:
        re = rng.choice(["0", *v])
        if n_max - used >= 2 and (not blocks or rng.random() < 0.7):
            size = rng.randint(1, min(3, (n_max - used) // 2))
            blocks.append({"kind": "complex", "size": size, "re": re, "im_resonant": str(rng.randint(-2, 2))})
            used += 2 * size
        else:
            blocks.append({"kind": "real", "size": 1, "re": re})
            used += 1
    return parse_spec(json.dumps({"n": used, "symbols": ["b", "c"], "blocks": blocks}))


def test_unit_rows_equal_the_realified_elimination_inside_the_hypothesis():
    # the realification stays the reference: inside the hypothesis each slice's
    # unit rows equal the echelon basis of the real and imaginary parts of every
    # resonant monomial, many of which have more than one term
    from solvform.monodromy import _realify
    from solvform.spectral import modification_hypothesis_holds

    rng = random.Random(47)
    multi_term = 0
    for _ in range(120):
        spec = _random_hypothesis_spec(rng)
        assert modification_hypothesis_holds(spec)
        table = _slot_table(spec)
        multi = False
        for k in range(spec.n + 1):
            parts = [part for combo in resonant_monomials(spec, k) for part in _realify(table, combo) if part]
            multi = multi or any(len(part) > 1 for part in parts)
            assert [u.terms for u in nilpotent_submodule(spec, k)] == echelon_basis(parts)
        multi_term += multi
    assert multi_term >= 30


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

    visit(0, (), zero_weight())
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
    plain_add = monodromy._add_weights

    def counting_add(a, b):
        nonlocal added
        added += 1
        return plain_add(a, b)

    monkeypatch.setattr(monodromy, "_add_weights", counting_add)
    for spec in _weight_count_specs((s6, s8, torus3, torus4, heisenberg3)):
        sizes = Counter(s.weight for s in generator_weights(spec)).values()
        bound = prod(size + 1 for size in sizes)
        _resonant_counts.cache_clear()
        added = 0
        for k in range(spec.n + 1):
            resonant_monomials(spec, k)
        assert added <= bound


def test_resonant_counts_build_no_symbolic_scalars(monkeypatch, s8):
    # the weight sums run on integer coordinate tuples, not on ScalarLC
    built = 0
    plain_init = ScalarLC.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        plain_init(self, *args, **kwargs)

    monkeypatch.setattr(ScalarLC, "__init__", counting_init)
    _resonant_counts.cache_clear()
    groups, counts = _resonant_counts(s8)
    assert built == 0
    assert counts and sum(map(len, groups)) == s8.n


def test_shift_out_of_the_slice_is_caught(monkeypatch, s8):
    # the degree-1 slice of s8 is spanned by a1, a2, a3; a shift sending
    # a1 to a4 (weight b, not resonant) leaves it
    # the degree-2 slice of frac holds the realified row a13 + a24; its true
    # shift sends a1 to a3, a2 to a4 and a5 to a6, and also sending a3 to a5
    # maps that row to a15, outside the slice
    frac = parse_spec(
        '{"n": 6, "blocks": [{"kind": "complex", "size": 2, "im_resonant": "1/3"}, {"kind": "real", "size": 2}]}'
    )
    assert _shift_index_map(frac) == (0, 3, 4, 0, 0, 6, 0)
    shifts = {s8: (0, 4, 0, 0, 0, 0, 0, 0), frac: (0, 3, 4, 5, 0, 6, 0)}
    monkeypatch.setattr(monodromy, "_shift_index_map", shifts.__getitem__)
    _shift_slice.cache_clear()
    try:
        with pytest.raises(InternalInvariantViolation, match="out of the unipotent slice"):
            shift_slice(s8, 1)
        with pytest.raises(InternalInvariantViolation, match=r"maps a13 \+ a24 out of the unipotent slice"):
            shift_slice(frac, 2)
    finally:
        _shift_slice.cache_clear()


@pytest.mark.parametrize(
    "mutant, message",
    [
        ("real part only", r"has rank 2, not one per resonant monomial \(5\)"),
        ("conjugate dropped", r"has rank 5, not one per resonant monomial \(4\)"),
    ],
    ids=["real part only", "conjugate dropped"],
)
def test_realification_certificate_catches_a_lost_part(monkeypatch, mutant, message):
    # third-turn rotations fail the modification hypothesis, so the slices are
    # realified; the resonant degree-2 monomials are the slot pairs (1, 2), (1, 4),
    # (2, 3), (3, 4) and (5, 6), closed under conjugation, and losing a real or
    # imaginary part lowers the rank, while losing a conjugate raises it
    spec = parse_spec(
        '{"n": 6, "blocks": [{"kind": "complex", "size": 2, "im_resonant": "1/3"}, {"kind": "real", "size": 2}]}'
    )
    realify, resonant = monodromy._realify, monodromy.resonant_monomials
    table = _slot_table(spec)

    def drop_one_conjugate(spec, k):
        kept = resonant(spec, k)
        conjugates = [tuple(sorted(table[i][0] for i in combo)) for combo in kept]
        dropped = next((conj for combo, conj in zip(kept, conjugates) if conj != combo), None)
        return [combo for combo in kept if combo != dropped]

    if mutant == "real part only":
        monkeypatch.setattr(monodromy, "_realify", lambda table, combo: (realify(table, combo)[0], {}))
    else:
        monkeypatch.setattr(monodromy, "resonant_monomials", drop_one_conjugate)
    monodromy._nilpotent_submodule.cache_clear()
    try:
        assert len(nilpotent_submodule(spec, 1)) == 2
        with pytest.raises(InternalInvariantViolation, match=message):
            nilpotent_submodule(spec, 2)
    finally:
        monodromy._nilpotent_submodule.cache_clear()


def test_closure_certificate_catches_a_lost_swap(monkeypatch, s8):
    # inside the modification hypothesis the slice is the unit rows of the resonant
    # tuples, which rests on their closure under swapping one complex slot for its
    # conjugate; s8's degree-2 tuples (4, 6), (4, 7), (5, 6) and (5, 7) are closed,
    # and dropping (5, 6), the swap of slot 4 in (4, 6), is caught by name
    resonant = monodromy.resonant_monomials
    table = _slot_table(s8)

    def drop_one_swap(spec, k):
        kept = resonant(spec, k)
        swaps = [
            combo[:p] + (table[i][0],) + combo[p + 1 :]
            for combo in kept
            for p, i in enumerate(combo)
            if table[i][0] not in combo
        ]
        return [combo for combo in kept if not swaps or combo != swaps[0]]

    monkeypatch.setattr(monodromy, "resonant_monomials", drop_one_swap)
    monodromy._nilpotent_submodule.cache_clear()
    try:
        assert len(nilpotent_submodule(s8, 1)) == 3
        with pytest.raises(
            InternalInvariantViolation,
            match=r"resonant monomial \(4, 6\) has a non-resonant conjugate swap at slot 4",
        ):
            nilpotent_submodule(s8, 2)
    finally:
        monodromy._nilpotent_submodule.cache_clear()


def test_a_shift_kernel_short_of_its_sl2_count_exits_2(monkeypatch, tmp_path, capsys):
    # dim ker N_k is the number of resonant degree-k monomials of sl2 weight 0
    # or 1, so an elimination that loses a kernel vector is refused
    # both slice routes eliminate the transposed shift images through one name
    plain = monodromy.column_kernel_and_pivots

    def losing_one(columns, size):
        kernel, pivots = plain(columns, size)
        return kernel[1:], pivots

    path = tmp_path / "nil7.json"
    path.write_text(json.dumps({"n": 7, "blocks": [{"kind": "real", "size": 7}]}))
    # a slice with multi-term rows; such specs fail the modification
    # hypothesis, so only the library reaches them
    frac = parse_spec(
        '{"n": 6, "blocks": [{"kind": "complex", "size": 2, "im_resonant": "1/3"}, {"kind": "real", "size": 2}]}'
    )
    assert any(len(u.terms) > 1 for u in nilpotent_submodule(frac, 2))
    monkeypatch.setattr(monodromy, "column_kernel_and_pivots", losing_one)
    _shift_slice.cache_clear()
    try:
        assert cli.main(["cohomology", str(path)]) == 2
        with pytest.raises(InternalInvariantViolation, match="degree-2 shift kernel has"):
            shift_slice(frac, 2)
    finally:
        _shift_slice.cache_clear()
    assert capsys.readouterr().err.splitlines() == [
        "internal invariant violation: the degree-0 shift kernel has 0 vectors, "
        "but the sl2 weights of the slice count 1"
    ]


def _random_raising_index_map(rng, n) -> LinearEndo:
    images = [Multivector.zero(n, 1) for _ in range(n)]
    for i in range(1, n):
        if rng.random() < 0.6:
            images[i - 1] = Multivector.basis_one_form(n, rng.randint(i + 1, n))
    return LinearEndo(n, images)


def _decoded_index_map(shift: LinearEndo) -> tuple[int, ...]:
    """The index map of a shift whose images are unit one-forms or zero."""
    return (0, *(min(image.terms)[0] if image.terms else 0 for image in shift.images))


def test_tuple_shift_matches_the_derivation_route(s6, s8, torus3, torus4, heisenberg3):
    rng = random.Random(46)
    specs = [s6, s8, torus3, torus4, heisenberg3]
    specs += [parse_spec(json.dumps(WEIGHT_COUNT_SPECS[name])) for name in ("nil7", "nil322", "s10")]
    specs += [random_resonant_spec(rng, n_max=7) for _ in range(60)]
    specs += [random_unimodular_spec(rng, n_max=7) for _ in range(60)]
    # the package's shifts move an index by one or two; random maps jump further
    cases = [(nilpotent_log(spec), _shift_index_map(spec), spec) for spec in specs]
    for _ in range(20):
        shift = _random_raising_index_map(rng, 7)
        cases.append((shift, _decoded_index_map(shift), None))
    checked = 0
    for shift, index_map, spec in cases:
        for k in range(shift.n + 1):
            vectors = [Multivector.monomial(shift.n, key) for key in monomials(shift.n, k)]
            vectors += nilpotent_submodule(spec, k) if spec else []
            for u in vectors:
                assert _shift_row(u.terms, index_map) == coordinate_vector(derivation_apply(shift, u))
                checked += 1
    assert checked > 10_000


def test_shift_index_map_follows_the_blocks():
    # the one description of the shift: it raises every index it does not send
    # to 0, no two indices share a target, each coordinate of a block's first
    # cell starts a chain as long as the block, and nilpotent_log is its unit images
    specs = _digest_specs() + [parse_spec(doc) for doc in MULTI_TERM.values()]
    assert any(b.kind == "complex" and b.size > 1 for spec in specs for b in spec.blocks)
    for spec in specs:
        index_map = _shift_index_map(spec)
        assert len(index_map) == spec.n + 1 and index_map[0] == 0
        targets = [j for j in index_map if j]
        assert all(j > i for i, j in enumerate(index_map) if j)
        assert len(set(targets)) == len(targets)
        for block, start in zip(spec.blocks, spec.block_starts()):
            for first in range(start, start + block.real_dim // block.size):
                chain = [first]
                while index_map[chain[-1]]:
                    chain.append(index_map[chain[-1]])
                assert len(chain) == block.size and chain[-1] < start + block.real_dim
        images = [image.terms for image in nilpotent_log(spec).images]
        assert images == [{(j,): 1} if j else {} for j in index_map[1:]]


@pytest.mark.parametrize("name", ["nil322", "s10"])
def test_shift_slices_and_closed_two_forms_carry_fractions(name):
    # the forms built from the elimination's rows store each exact rational
    # coefficient by the rule: an int when integral, a Fraction otherwise
    spec = parse_spec(json.dumps(WEIGHT_COUNT_SPECS[name]))
    forms = closed_two_classes(spec)
    for k in range(spec.n + 1):
        kernel, cokernel = shift_slice(spec, k)
        forms += kernel + cokernel
    assert len(forms) > spec.n
    for form in forms:
        assert all(map(follows_the_coefficient_rule, form.terms.values())), form


def test_unit_row_slices_skip_elimination(monkeypatch, nil322, s6, s8):
    # inside the modification hypothesis every slice is the sorted unit rows of
    # its resonant tuples, so nil322, s6 and s8 realify and eliminate nothing;
    # frac3's third-turn rotations fail the hypothesis, so each of its slices
    # realifies every resonant monomial and eliminates once
    calls = []
    realified = []
    plain = monodromy.echelon_basis
    plain_realify = monodromy._realify

    def counting(vectors):
        calls.append(len(vectors))
        return plain(vectors)

    def counting_realify(slots, combo):
        realified.append(combo)
        return plain_realify(slots, combo)

    monkeypatch.setattr(monodromy, "echelon_basis", counting)
    monkeypatch.setattr(monodromy, "_realify", counting_realify)
    monodromy._nilpotent_submodule.cache_clear()
    try:
        for spec in (nil322, s6, s8):
            for k in range(spec.n + 1):
                basis = nilpotent_submodule(spec, k)
                keys = [key for u in basis for key in u.terms]
                assert keys == resonant_monomials(spec, k)
                assert all(u.terms == {key: 1} for u, key in zip(basis, keys))
        assert calls == [] and realified == []
        frac3 = parse_spec(MULTI_TERM["frac3"])
        for k in range(frac3.n + 1):
            nilpotent_submodule(frac3, k)
        assert len(calls) == frac3.n + 1
        assert realified == [combo for k in range(frac3.n + 1) for combo in resonant_monomials(frac3, k)]
    finally:
        monodromy._nilpotent_submodule.cache_clear()


def test_unit_route_forms_no_per_row_image(monkeypatch, nil322, s8):
    # a slice of unit rows writes each key's shift straight into the transposed
    # columns, so nil7, nil322 and s8 form no image row; frac3's slices with
    # multi-term rows image each basis row once through _shift_row
    calls = []
    plain = monodromy._shift_row

    def counting(row, index_map):
        calls.append(row)
        return plain(row, index_map)

    monkeypatch.setattr(monodromy, "_shift_row", counting)
    _shift_slice.cache_clear()
    try:
        for spec in (parse_spec(json.dumps(WEIGHT_COUNT_SPECS["nil7"])), nil322, s8):
            for k in range(spec.n + 1):
                shift_slice(spec, k)
        assert calls == []
        frac3 = parse_spec(MULTI_TERM["frac3"])
        expected = []
        for k in range(frac3.n + 1):
            shift_slice(frac3, k)
            basis = nilpotent_submodule(frac3, k)
            if any(len(u.terms) > 1 for u in basis):
                expected += [u.terms for u in basis]
        assert len(expected) > frac3.n and calls == expected
    finally:
        _shift_slice.cache_clear()


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
    build_twisted_model(model)
    with pytest.raises(InputError, match="the degree-8 unipotent slice has 12870"):
        check_fiber_size(nil16)
    check_fiber_size(parse_spec('{"n": 15, "blocks": [{"kind": "real", "size": 15}]}'))  # 6,435


def _general_shift_slice(spec, k):
    """The shift kernel rows and cokernel by the general route: ``map_kernel`` and
    ``rref`` pivots of the reversed images, each kernel vector mapped back with ``matrix_mul``."""
    basis = nilpotent_submodule(spec, k)
    rows = [u.terms for u in basis]
    images = [_shift_row(row, _shift_index_map(spec)) for row in rows]
    kernel, pivots = map_kernel(images[::-1]), rref(images[::-1])[1]
    last = len(rows) - 1
    kernel_rows = matrix_mul([{last - j: x for j, x in vec.items()} for vec in reversed(kernel)], rows)
    pivots = set(pivots)
    return kernel_rows, [u for u in basis if min(u.terms) not in pivots]


def test_unit_shift_route_matches_the_general_route(s6, s8, torus3, torus4, heisenberg3):
    # unit slices write the shift images straight into the transposed columns and
    # key the kernel by slice monomial; the general route must give the same rows,
    # coefficient types and order
    specs = cross_check_specs((s6, s8, torus3, torus4, heisenberg3))
    specs += [parse_spec(json.dumps(WEIGHT_COUNT_SPECS[name])) for name in ("nil7", "nil322", "nil11", "nil13")]
    def typed(terms):
        return [(key, x, type(x)) for key, x in sorted(terms.items())]

    compared = 0
    for spec in specs:
        for k in range(spec.n + 1):
            if not all(len(u.terms) == 1 for u in nilpotent_submodule(spec, k)):
                continue
            kernel, cokernel = shift_slice(spec, k)
            kernel_rows, expected_cokernel = _general_shift_slice(spec, k)
            assert [typed(u.terms) for u in kernel] == [typed(row) for row in kernel_rows], (spec, k)
            assert cokernel == expected_cokernel, (spec, k)
            compared += bool(kernel) and bool(cokernel)
    assert compared > 300


def test_single_group_resonant_monomials_match_the_general_enumeration(torus3, torus4):
    # one weight group takes combinations(group, k) unchanged; the general route
    # expands every count vector into products of combinations and sorts
    def general(spec, k):
        groups, counts = _resonant_counts(spec)
        kept = []
        for count in counts:
            if sum(count) == k:
                for parts in product(*(combinations(g, c) for g, c in zip(groups, count))):
                    kept.append(tuple(sorted(chain.from_iterable(parts))))
        return sorted(kept)

    docs = [WEIGHT_COUNT_SPECS["nil7"], WEIGHT_COUNT_SPECS["nil13"], {"n": 14, "blocks": [{"kind": "real", "size": 14}]}]
    # one group of nonzero weight b: only the empty monomial is resonant
    docs.append({"n": 3, "symbols": ["b"], "blocks": [{"kind": "real", "size": 3, "re": "b"}]})
    specs = [torus3, torus4] + [parse_spec(json.dumps(doc)) for doc in docs]
    draws = [random_resonant_spec(random.Random(seed), n_max=7) for seed in range(60)]
    draws += [random_unimodular_spec(random.Random(seed), n_max=7) for seed in range(1000, 1060)]
    specs += [spec for spec in draws if len(_resonant_counts(spec)[0]) == 1]
    assert len(specs) > 10
    empty = 0
    for spec in specs:
        assert len(_resonant_counts(spec)[0]) == 1
        for k in range(spec.n + 1):
            expected = general(spec, k)
            assert resonant_monomials(spec, k) == expected, (spec, k)
            empty += not expected
    assert empty >= 3
