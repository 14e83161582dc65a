"""Cohomology of the completely solvable modification."""

import random
from fractions import Fraction

import pytest

from conftest import (
    random_multivector,
    random_resonant_spec,
    random_unimodular_spec,
    rank,
    representative_elements,
)
from solvform import (
    CEElement,
    HypothesisError,
    betti_numbers,
    ce_differential,
    cohomology,
    parse_spec,
)
from solvform.cohomology import trace_is_zero
from solvform.exterior import LinearEndo, Multivector, derivation_apply, wedge
from solvform.monodromy import _sl2_kernel_sizes, resonant_monomials
from solvform.spectral import modification_hypothesis_holds, modified_matrix


def _rep_set(slice_, n):
    """Kernel and cokernel representatives as comparable strings."""
    out = {str(v) for v in slice_.kernel_reps}
    out |= {f"{v}^a{n + 1}" for v in slice_.coker_reps}
    return out


def test_ce_differential_examples(s6):
    d_a1 = ce_differential(s6, CEElement(Multivector.basis_one_form(5, 1)))
    assert d_a1.fiber.is_zero()
    assert d_a1.base == -Multivector.basis_one_form(5, 2)  # -a2 ^ a6
    d_a3 = ce_differential(s6, CEElement(Multivector.basis_one_form(5, 3)))
    assert d_a3.is_zero()


def test_base_part_of_the_wrong_degree_is_refused():
    fiber = Multivector.basis_one_form(5, 1).wedge(Multivector.basis_one_form(5, 2))
    assert CEElement(fiber, Multivector.basis_one_form(5, 3)).degree == 2
    with pytest.raises(ValueError, match="one below the fiber part"):
        CEElement(fiber, fiber)
    with pytest.raises(ValueError, match="one below the fiber part"):
        CEElement(Multivector.basis_one_form(5, 1), Multivector.basis_one_form(5, 3))


def test_ce_differential_squares_to_zero(s6, s8):
    rng = random.Random(51)
    cases = 0
    specs = [s6, s8] + [random_unimodular_spec(rng) for _ in range(20)]
    while cases < 120:
        spec = rng.choice(specs)
        k = rng.randint(0, spec.n)
        elt = CEElement(
            random_multivector(rng, spec.n, k),
            random_multivector(rng, spec.n, k - 1) if k >= 1 else None,
        )
        once = ce_differential(spec, elt)
        twice = ce_differential(spec, CEElement(once.fiber, once.base))
        assert twice.is_zero()
        cases += 1


def test_ce_square_zero_in_full_complex_for_rational_specs(torus4, heisenberg3, s6):
    # embed into the (n+1)-dimensional exterior algebra and apply the
    # derivation twice; vanishing is forced by the repeated top generator
    rng = random.Random(52)
    for spec in (torus4, heisenberg3, s6):
        total = spec.n + 1
        mod = modified_matrix(spec)
        extended = LinearEndo(
            total,
            [mod.image_of(i).extend_ambient(total) for i in range(1, spec.n + 1)]
            + [Multivector.zero(total, 1)],
        )
        alpha = Multivector.basis_one_form(total, total)
        for _ in range(40):
            k = rng.randint(0, spec.n)
            x = random_multivector(rng, spec.n, k).extend_ambient(total)
            d1 = wedge(derivation_apply(extended, x), alpha).scaled(-1)
            d2 = wedge(derivation_apply(extended, d1), alpha).scaled(-1)
            assert d2.is_zero()


def test_s6_betti_and_representatives(s6):
    assert betti_numbers(s6) == [1, 4, 7, 8, 7, 4, 1]
    assert _rep_set(cohomology(s6, 1), 5) == {"a3", "a4", "a5", "1^a6"}
    assert _rep_set(cohomology(s6, 2), 5) == {
        "a23", "a34", "a35", "a45", "a1^a6", "a4^a6", "a5^a6",
    }
    assert _rep_set(cohomology(s6, 3), 5) == {
        "a123", "a234", "a235", "a345", "a12^a6", "a14^a6", "a15^a6", "a45^a6",
    }


def test_s8_degree_one(s8):
    slice_ = cohomology(s8, 1)
    assert slice_.betti == 2
    assert _rep_set(slice_, 7) == {"a3", "1^a8"}


def test_torus_binomials(torus3):
    assert betti_numbers(torus3) == [1, 3, 3, 1]


def test_representatives_are_closed_and_independent_mod_exact(s6, s8):
    rng = random.Random(53)
    specs = [s6, s8] + [random_unimodular_spec(rng) for _ in range(8)]
    for spec in specs:
        for k in range(spec.n + 2):
            slice_ = cohomology(spec, k)
            for elt in representative_elements(slice_, spec.n):
                assert ce_differential(spec, elt).is_zero()
            # kernel representatives cannot be exact: the image of the
            # differential lies entirely in the base-wedge summand
            for rep in slice_.kernel_reps:
                assert not rep.is_zero()


def test_betti_consistency_with_dimension_count(s6, s8):
    # dim H^k = dim ker(N_k) + dim coker(N_{k-1}) on the unipotent slices;
    # cross-check through rank-nullity, dim ker N_k + rank N_k = dim U^k,
    # with the rank of the shift images taken independently
    from solvform.exterior import coordinate_vector
    from solvform.monodromy import nilpotent_submodule, shift_slice
    from solvform.spectral import nilpotent_log

    for spec in (s6, s8):
        shift = nilpotent_log(spec)
        for k in range(1, spec.n + 1):
            kernel_reps, coker_reps = shift_slice(spec, k - 1)
            basis = nilpotent_submodule(spec, k - 1)
            image_rank = rank([coordinate_vector(derivation_apply(shift, u)) for u in basis])
            here = cohomology(spec, k)
            assert len(here.coker_reps) == len(coker_reps) == len(basis) - image_rank
            assert len(kernel_reps) + image_rank == len(basis)


def test_kernel_reps_match_full_modified_action(s6, torus3, torus4, heisenberg3):
    # the shift kernel on the unipotent slice is the whole kernel of the
    # modified action: every other weight slice is mapped invertibly
    from solvform.exterior import coordinate_vector, monomials
    from solvform.linalg import echelon_basis, map_kernel

    rng = random.Random(20261018)
    specs = [s6, torus3, torus4, heisenberg3]
    specs += [random_unimodular_spec(rng, n_max=6, symbols=()) for _ in range(30)]
    for spec in specs:
        action = modified_matrix(spec)
        for k in range(spec.n + 1):
            keys = monomials(spec.n, k)
            rows = [
                coordinate_vector(derivation_apply(action, Multivector.monomial(spec.n, key)))
                for key in keys
            ]
            vectors = [{keys[j]: c for j, c in vec.items()} for vec in map_kernel(rows)]
            expected = [Multivector(spec.n, k, row) for row in echelon_basis(vectors)]
            assert cohomology(spec, k).kernel_reps == expected, (spec, k)


def test_coker_representatives_independent_of_image(s6, s8):
    # the base-wedge classes are spanned by non-pivot monomials of the
    # zero-weight slices, so adding them to their slice's image rows must
    # grow the rank by their count
    from solvform.exterior import coordinate_vector, monomials
    from solvform.scalars import ScalarLC

    for spec in (s6, s8):
        action = modified_matrix(spec)
        for k in range(1, spec.n + 2):
            coker_keys = [next(iter(v.terms)) for v in cohomology(spec, k).coker_reps]
            # monomials grouped by total real weight, independently of the
            # resonance enumeration that picks the eliminated slice
            groups = {}
            for key in monomials(spec.n, k - 1):
                weight = sum((spec.coordinate_re(i) for i in key), ScalarLC(0))
                groups.setdefault(weight, []).append(key)
            placed = 0
            for weight, group in groups.items():
                in_group = [key for key in coker_keys if key in group]
                if not weight.is_zero():
                    assert not in_group
                    continue
                image_rows = [
                    coordinate_vector(derivation_apply(action, Multivector.monomial(spec.n, key)))
                    for key in group
                ]
                # the action stays inside the weight slice
                assert all(set(row) <= set(group) for row in image_rows)
                coker_rows = [
                    coordinate_vector(Multivector.monomial(spec.n, key)) for key in in_group
                ]
                assert rank(image_rows + coker_rows) == rank(image_rows) + len(in_group)
                placed += len(in_group)
            assert placed == len(coker_keys)


def _full_complex_betti(spec):
    """Betti numbers from the raw differential on the whole total algebra.

    No weight decomposition, no mapping-cone splitting: extend the
    modified action by zero on the base dual generator, apply it as a
    derivation, wedge with that generator, and take ranks.  Rational
    instances only.
    """
    from solvform.exterior import coordinate_vector, monomials

    total = spec.n + 1
    mod = modified_matrix(spec)
    extended = LinearEndo(
        total,
        [mod.image_of(i).extend_ambient(total) for i in range(1, spec.n + 1)]
        + [Multivector.zero(total, 1)],
    )
    alpha = Multivector.basis_one_form(total, total)
    ranks = []
    for k in range(total + 1):
        rows = []
        for key in monomials(total, k):
            image = wedge(
                derivation_apply(extended, Multivector.monomial(total, key)), alpha
            ).scaled(-1)
            rows.append(coordinate_vector(image))
        ranks.append(rank(rows))
    betti = []
    for k in range(total + 1):
        dim = len(monomials(total, k))
        betti.append(dim - ranks[k] - (ranks[k - 1] if k >= 1 else 0))
    return betti


def test_betti_against_full_complex_oracle(s6, torus3, torus4, heisenberg3):
    rng = random.Random(56)
    specs = [s6, torus3, torus4, heisenberg3]
    specs += [random_unimodular_spec(rng, n_max=5, symbols=()) for _ in range(10)]
    for spec in specs:
        assert betti_numbers(spec) == _full_complex_betti(spec)


def test_symbolic_betti_against_substituted_full_complex(s8):
    # every weight in these instances is a rational multiple of the one
    # symbol, so substituting any nonzero rational for it preserves which
    # weights vanish; the symbolic answer must match the substituted one
    from solvform import AlmostAbelianSpec, Block

    pair_doc = """{"n": 4, "symbols": ["b"],
                   "blocks": [{"kind": "real", "size": 2, "re": "b"},
                              {"kind": "real", "size": 2, "re": "-b"}]}"""
    for spec in (s8, parse_spec(pair_doc)):
        for value in (Fraction(3, 2), Fraction(-7)):
            blocks = []
            for b in spec.blocks:
                assert b.re.const == 0  # pure multiple of the symbol
                coeff = dict(b.re.terms).get("b", Fraction(0))
                blocks.append(Block(b.kind, b.size, type(b.re)(coeff * value), b.im_resonant, b.im_symbolic))
            substituted = AlmostAbelianSpec(spec.n, tuple(blocks))
            assert betti_numbers(spec) == _full_complex_betti(substituted)


def test_poincare_duality_for_unimodular_specs(s6, s8, torus4, heisenberg3):
    rng = random.Random(54)
    specs = [s6, s8, torus4, heisenberg3] + [random_unimodular_spec(rng) for _ in range(20)]
    for spec in specs:
        assert trace_is_zero(spec)
        betti = betti_numbers(spec)
        total = spec.n + 1
        for k in range(total + 1):
            assert betti[k] == betti[total - k]


def test_euler_characteristic_vanishes(s6, s8, torus3):
    rng = random.Random(55)
    specs = [s6, s8, torus3] + [random_unimodular_spec(rng) for _ in range(20)]
    # holds for the mapping cone of any endomorphism, unimodular or not
    specs.append(parse_spec('{"n": 2, "blocks": [{"kind": "real", "size": 2, "re": "1"}]}'))
    for spec in specs:
        betti = betti_numbers(spec)
        assert sum((-1) ** k * b for k, b in enumerate(betti)) == 0


def test_hypothesis_violation_raises():
    spec = parse_spec('{"n": 2, "blocks": [{"kind": "complex", "size": 1, "im_resonant": "1/2"}]}')
    for k in (1, 1, 0, spec.n + 1, -1):
        with pytest.raises(HypothesisError, match="blocks\\[0\\]"):
            cohomology(spec, k)


def test_nonzero_rational_weights_have_no_cohomology():
    # single real block with eigenvalue 1 (not unimodular): everything in
    # positive fiber weight is invertible, so only degree 0 and the bare
    # base class survive
    spec = parse_spec('{"n": 2, "blocks": [{"kind": "real", "size": 2, "re": "1"}]}')
    assert betti_numbers(spec) == [1, 1, 0, 0]
    assert _rep_set(cohomology(spec, 1), 2) == {"1^a3"}


_SL2_SPECS = {
    "nil7": '{"n": 7, "blocks": [{"kind": "real", "size": 7}]}',
    "nil11": '{"n": 11, "blocks": [{"kind": "real", "size": 4}, {"kind": "real", "size": 4},'
    ' {"kind": "real", "size": 3}]}',
    "s10": '{"n": 9, "symbols": ["b"], "blocks": [{"kind": "real", "size": 3},'
    ' {"kind": "complex", "size": 1, "re": "b", "im_resonant": "1"},'
    ' {"kind": "complex", "size": 1, "re": "-b", "im_resonant": "1"},'
    ' {"kind": "complex", "size": 1, "im_resonant": "1"}]}',
    "complex3": '{"n": 6, "blocks": [{"kind": "complex", "size": 3, "im_resonant": "1"}]}',
}


def _sl2_slot_weights(spec):
    """The slot at position j of a Jordan chain of length m has sl2 weight
    2j - (m - 1); a real block is one chain, a complex block two, one
    through its z slots and one through its conjugate slots."""
    out = {}
    for block, start in zip(spec.blocks, spec.block_starts()):
        m = block.size
        for j in range(m):
            if block.kind == "real":
                out[start + j] = 2 * j - (m - 1)
            else:
                out[start + 2 * j] = out[start + 2 * j + 1] = 2 * j - (m - 1)
    return out


def _sl2_specs(fixtures):
    rng = random.Random(47)
    specs = list(fixtures) + [parse_spec(doc) for doc in _SL2_SPECS.values()]
    specs += [random_resonant_spec(rng, n_max=7) for _ in range(60)]
    specs += [random_unimodular_spec(rng, n_max=7) for _ in range(60)]
    return specs


def _sl2_kernel_count(spec):
    """``[dim ker N_k for k in 0..n]``: the resonant degree-k monomials of sl2 weight 0 or 1."""
    weight = _sl2_slot_weights(spec)
    return [
        sum(sum(weight[s] for s in mono) in (0, 1) for mono in resonant_monomials(spec, k))
        for k in range(spec.n + 1)
    ]


def test_betti_numbers_from_sl2_weights(s6, s8, torus3, torus4, heisenberg3, nil322):
    # the shift makes each resonant slice an sl2-module, so dim ker N_k counts
    # the resonant monomials of sl2 weight 0 or 1 (Jacobson-Morozov), and
    # b_k = dim ker N_k + dim coker N_(k-1) under the modification hypothesis
    checked = 0
    for spec in _sl2_specs([s6, s8, torus3, torus4, heisenberg3, nil322]):
        if not modification_hypothesis_holds(spec):
            continue
        # kappa[k + 1] = dim ker N_k, padded with zeros for k = -1 and k = n + 1
        kappa = [0, *_sl2_kernel_count(spec), 0]
        assert betti_numbers(spec) == [kappa[k + 1] + kappa[k] for k in range(spec.n + 2)]
        checked += 1
    assert checked >= 100


def test_the_certificate_counts_sl2_weights_like_the_monomials(
    s6, s8, torus3, torus4, heisenberg3, nil322
):
    # the shift-slice certificate counts per weight group, listing no monomial;
    # the count does not depend on the modification hypothesis, which the specs
    # of the Betti test all satisfy, so three that fail it are added
    failing = [
        '{"n": 8, "blocks": [{"kind": "complex", "size": 2, "im_resonant": "1/3"},'
        ' {"kind": "complex", "size": 1, "im_resonant": "1/3"}, {"kind": "real", "size": 2}]}',
        '{"n": 7, "blocks": [{"kind": "complex", "size": 3, "im_resonant": "1/2"}, {"kind": "real", "size": 1}]}',
        '{"n": 6, "symbols": ["c"], "blocks": [{"kind": "complex", "size": 2, "im_symbolic": "c"},'
        ' {"kind": "complex", "size": 1, "im_symbolic": "-2*c"}]}',
    ]
    specs = _sl2_specs([s6, s8, torus3, torus4, heisenberg3, nil322]) + list(map(parse_spec, failing))
    for spec in specs:
        assert list(_sl2_kernel_sizes(spec)) == _sl2_kernel_count(spec)
    assert sum(not modification_hypothesis_holds(spec) for spec in specs) == len(failing)
