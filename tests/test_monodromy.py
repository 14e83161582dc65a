"""Unipotent-monodromy submodule: enumeration route vs. independent iteration."""

import json
import random
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from conftest import (
    follows_the_coefficient_rule,
    in_submodule_span,
    random_resonant_spec,
    random_unimodular_spec,
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
    generator_weights,
    nilpotent_log,
    nilpotent_submodule,
    parse_spec,
    resonance_test,
)
from solvform.exterior import LinearEndo, Multivector, coordinate_vector, derivation_apply
from solvform.linalg import echelon_basis, map_kernel, matrix_mul
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
from solvform.spectral import _shift_index_map
from solvform.symplectic import closed_two_classes
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


def test_a_shift_kernel_short_of_its_sl2_count_exits_2(monkeypatch, tmp_path, capsys):
    # dim ker N_k is the number of resonant degree-k monomials of sl2 weight 0
    # or 1, so an elimination that loses a kernel vector is refused
    plain = monodromy.kernel_and_pivots

    def losing_one(rows):
        kernel, pivots = plain(rows)
        return kernel[1:], pivots

    path = tmp_path / "nil7.json"
    path.write_text(json.dumps({"n": 7, "blocks": [{"kind": "real", "size": 7}]}))
    # a slice with multi-term rows; such specs fail the modification
    # hypothesis, so only the library reaches them
    frac = parse_spec(
        '{"n": 6, "blocks": [{"kind": "complex", "size": 2, "im_resonant": "1/3"}, {"kind": "real", "size": 2}]}'
    )
    assert any(len(u.terms) > 1 for u in nilpotent_submodule(frac, 2))
    monkeypatch.setattr(monodromy, "kernel_and_pivots", losing_one)
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
    # every slot of nil322 is real, so each slice is its sorted unit rows and no
    # monomial is realified; the complex slots of s6 realify to one-term rows, so
    # only the oracle eliminates there, while s8's two-term rows of degree 2 still
    # go through elimination
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
    monkeypatch.setattr(oracle, "echelon_basis", counting)
    monkeypatch.setattr(monodromy, "_realify", counting_realify)
    monodromy._nilpotent_submodule.cache_clear()
    try:
        for k in range(nil322.n + 1):
            basis = nilpotent_submodule(nil322, k)
            keys = [key for u in basis for key in u.terms]
            assert keys == resonant_monomials(nil322, k)
            assert all(u.terms == {key: 1} for u, key in zip(basis, keys))
        assert calls == [] and realified == []
        assert len(nilpotent_submodule(s6, 2)) == len(nilpotent_submodule_oracle(s6, 2))
        assert calls and calls[0] == len(resonant_monomials(s6, 2))
        calls.clear()
        nilpotent_submodule(s8, 2)
        assert calls == [len(resonant_monomials(s8, 2))]
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
