"""Twist derivation, twisted total model, and the formality criterion."""

import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    k_formality,
    monomials_over,
    random_resonant_spec,
    random_unimodular_spec,
    reference_class_reps,
)
from solvform import (
    InputError,
    build_minimal_model,
    build_twisted_model,
    formality_from_twisted,
    nilpotent_log,
    parse_spec,
    total_model_dump,
)
from solvform.errors import InternalInvariantViolation
from solvform.exterior import Multivector, coordinate_vector, derivation_apply
from solvform.formality import DegreeStatus, FormalityVerdict, TwistedModel, _theta_nonclosed
from solvform.linalg import map_kernel, matrix_mul, rref, solve_combination
from solvform.minimal_model import MinimalModel
from solvform.monodromy import nilpotent_submodule, shift_slice
from test_golden_reports import NIL322, SPECS


def _theta_by_rho(tm):
    """Map rho-value string of each closed degree-1 generator to its twist string."""
    model = tm.model
    return {
        str(g.rho): model.poly_str(tm.theta[g.gid])
        for g in model.gens
        if g.closed and g.degree == 1
    }


def test_s6_twist_chain(s6):
    tm = build_twisted_model(s6, build_minimal_model(s6, 2))
    chain = _theta_by_rho(tm)
    # rho a1 -> the generator realizing a2 -> the one realizing a3 -> 0
    names = {str(g.rho): g.name for g in tm.model.gens}
    assert chain["a1"] == names["a2"]
    assert chain["a2"] == names["a3"]
    assert chain["a3"] == chain["a4"] == chain["a5"] == "0"


def test_s6_total_model_dump(s6):
    tm = build_twisted_model(s6, build_minimal_model(s6, 2))
    dump = total_model_dump(tm)
    assert dump.splitlines() == [
        "total model with twist generator A, degree bound 2",
        "D(A) = 0, tau(A) = a6",
        "D(g1) = 0, tau(g1) = a3",
        "D(g2) = 0, tau(g2) = a4",
        "D(g3) = 0, tau(g3) = a5",
        "D(g4) = g1*A, tau(g4) = a2",
        "D(g5) = g4*A, tau(g5) = a1",
    ]


def test_s8_degree_one_twist(s8):
    tm = build_twisted_model(s8, build_minimal_model(s8, 1))
    dump = total_model_dump(tm)
    assert "D(g1) = 0" in dump
    assert "D(g2) = g1*A" in dump
    assert "D(g3) = g2*A" in dump


def test_torus_twist_vanishes(torus3, torus4):
    for spec in (torus3, torus4):
        tm = build_twisted_model(spec, build_minimal_model(spec, 3))
        assert all(not poly for poly in tm.theta.values())
        verdict = formality_from_twisted(tm, 3)
        assert verdict.passed
        assert "formal through degree 3" in verdict.summary()


def test_formality_verdicts(s6, s8, heisenberg3):
    for spec in (s6, s8, heisenberg3):
        verdict = k_formality(spec, 1)
        assert not verdict.passed
        assert verdict.first_fail_degree == 1
        status = verdict.statuses[0]
        assert status.witness is not None and status.witness_twist is not None


def test_witness_is_closed_with_nonzero_twist(s6, s8):
    for spec in (s6, s8):
        model = build_minimal_model(spec, 2)
        tm = build_twisted_model(spec, model)
        verdict = formality_from_twisted(tm, 2)
        for status in verdict.statuses:
            if status.passed:
                continue
            assert not model.d_poly(status.witness)
            assert tm.theta_poly(status.witness) == status.witness_twist
            assert status.witness_twist


def degree_one_restatement(spec) -> bool:
    """Independent rephrasing of the degree-1 verdict: shift trivial on U^1?"""
    ntl = nilpotent_log(spec)
    return all(derivation_apply(ntl, u).is_zero() for u in nilpotent_submodule(spec, 1))


def test_degree_one_restatement_agrees(s6, s8, torus3, torus4, heisenberg3):
    rng = random.Random(71)
    specs = [s6, s8, torus3, torus4, heisenberg3]
    specs += [random_unimodular_spec(rng, n_max=5) for _ in range(10)]
    for spec in specs:
        verdict = k_formality(spec, 1)
        assert verdict.statuses[0].passed == degree_one_restatement(spec)


def test_twist_commutes_with_differential_everywhere(s6, s8, heisenberg3):
    rng = random.Random(72)
    specs = [s6, s8, heisenberg3] + [random_unimodular_spec(rng, n_max=5) for _ in range(10)]
    cases = 0
    for spec in specs:
        model = build_minimal_model(spec, 3)
        tm = build_twisted_model(spec, model)
        for g in model.gens:
            lhs = tm.theta_poly(g.differential)
            rhs = model.d_poly(tm.theta.get(g.gid, {}))
            assert lhs == rhs
            cases += 1
        for _ in range(8):
            k = rng.randint(1, 3)
            monos = model.monomials(k)
            if not monos:
                continue
            poly = {m: Fraction(rng.randint(-2, 2)) for m in rng.sample(monos, min(3, len(monos)))}
            lhs = tm.theta_poly(model.d_poly(poly))
            rhs = model.d_poly(tm.theta_poly(poly))
            assert lhs == rhs
            cases += 1
    assert cases >= 100


def test_twist_realizes_shift_on_closed_generators(s6, s8):
    for spec in (s6, s8):
        model = build_minimal_model(spec, 3)
        tm = build_twisted_model(spec, model)
        shift = nilpotent_log(spec)
        for g in model.gens:
            if not g.closed:
                continue
            expected = derivation_apply(shift, g.rho)
            if tm.theta[g.gid]:
                assert model.rho_poly(tm.theta[g.gid]) == coordinate_vector(expected)
            else:
                assert expected.is_zero()


def test_twist_is_nilpotent_per_degree(s6, s8):
    for spec in (s6, s8):
        model = build_minimal_model(spec, 3)
        tm = build_twisted_model(spec, model)
        for k in range(1, 4):
            for mono in model.monomials(k):
                poly = {mono: Fraction(1)}
                for _ in range(len(model.monomials(k)) + 1):
                    poly = tm.theta_poly(poly)
                    if not poly:
                        break
                assert poly == {}


def test_products_of_closed_elements_stay_closed_when_formal(torus4):
    model = build_minimal_model(torus4, 3)
    tm = build_twisted_model(torus4, model)
    assert formality_from_twisted(tm, 3).passed
    gens = [g for g in model.gens if g.closed]
    for a in gens:
        for b in gens:
            prod = tm.model.p_mul({(a.gid,): Fraction(1)}, {(b.gid,): Fraction(1)})
            assert not model.d_poly(prod)
            assert not tm.theta_poly(prod)


def test_higher_degree_twist_on_closed_generators():
    # two symbolic Jordan blocks of opposite eigenvalue: no invariant
    # 1-forms, four non-product 2-form classes carrying a nonzero twist;
    # formal in degree 1 but not in degree 2
    from solvform import parse_spec

    doc = """{"n": 4, "symbols": ["b"],
              "blocks": [{"kind": "real", "size": 2, "re": "b"},
                         {"kind": "real", "size": 2, "re": "-b"}]}"""
    spec = parse_spec(doc)
    model = build_minimal_model(spec, 2)
    assert model.generator_counts()[2] == (4, 0)
    tm = build_twisted_model(spec, model)
    assert any(tm.theta[g.gid] for g in model.gens)
    for g in model.gens:
        for mono in tm.theta.get(g.gid, {}):
            assert all(other < g.gid for other in mono)  # strictly triangular
    verdict = formality_from_twisted(tm, 2)
    assert verdict.statuses[0].passed  # no closed degree-1 elements at all
    assert not verdict.statuses[1].passed
    assert verdict.first_fail_degree == 2


def test_paired_shift_in_complex_jordan_block():
    from solvform import parse_spec
    from solvform.oracle import nilpotent_submodule_oracle, spans_match

    doc = '{"n": 4, "blocks": [{"kind": "complex", "size": 2, "re": "0", "im_resonant": "1"}]}'
    spec = parse_spec(doc)
    shift = nilpotent_log(spec)
    assert str(shift.image_of(1)) == "a3" and str(shift.image_of(2)) == "a4"
    assert shift.image_of(3).is_zero() and shift.image_of(4).is_zero()
    for k in range(5):
        assert spans_match(nilpotent_submodule(spec, k), nilpotent_submodule_oracle(spec, k))
    verdict = k_formality(spec, 1)
    assert not verdict.passed


def test_verdicts_never_share_a_status_list(s6):
    first, second = FormalityVerdict(1, 2), FormalityVerdict(1, 2)
    assert first.statuses == [] and first.statuses is not second.statuses
    first.statuses.append(DegreeStatus(1, True))
    assert second.statuses == [] and FormalityVerdict(1, 2).statuses == []
    again, once_more = k_formality(s6, 2), k_formality(s6, 2)
    assert again.statuses is not once_more.statuses
    assert [s.degree for s in again.statuses] == [s.degree for s in once_more.statuses] == [1, 2]


def test_formality_bound_errors(s6):
    model = build_minimal_model(s6, 2)
    tm = build_twisted_model(s6, model)
    with pytest.raises(InputError):
        formality_from_twisted(tm, 3)


def test_verdict_summary_carries_bound(s8):
    verdict = k_formality(s8, 1, d_max=2)
    assert re.search(r"model bound 2", verdict.summary())
    assert re.search(r"not 1-formal", verdict.summary())


def _reference_theta_nonclosed(model, tm, gen):
    """The twist of a non-closed generator by two eliminations.

    The least solution comes from the reduced echelon form of the columns
    of ``rows + [rhs]``, uniqueness from a separate ``map_kernel(rows)``;
    None when no space has a solution.  Columns are positions in the
    sorted codomain monomial list, built here independently of the
    monomial-keyed rows the package eliminates.
    """
    rhs = tm.theta_poly(gen.differential)
    if not rhs:
        return {}, False
    for restricted, gids in ((True, range(gen.gid)), (False, None)):
        domain = monomials_over(model, gen.degree, gids)
        codomain = {m: i for i, m in enumerate(monomials_over(model, gen.degree + 1, gids))}
        if not domain:
            continue
        try:
            rhs_vec = {codomain[m]: c for m, c in rhs.items()}
        except KeyError:
            continue
        rows = [{codomain[t]: c for t, c in model.d_mono(m).items()} for m in domain]
        last = len(rows)
        columns: dict = {}
        for j, row in enumerate(rows + [rhs_vec]):
            for c, x in row.items():
                columns.setdefault(c, {})[j] = x
        red, pivots = rref([columns[c] for c in sorted(columns)])
        if pivots and pivots[-1] == last:
            continue
        coeffs = {p: row[last] for row, p in zip(red, pivots) if last in row}
        chose = (not restricted) or len(map_kernel(rows)) > 0
        return {domain[i]: c for i, c in sorted(coeffs.items())}, chose
    return None


def _reference_theta_closed(model, ntl, gen):
    """The twist of a closed generator from two column lists: the earlier
    same-degree closed generators, then the classes of the lower-degree
    generators.  The realizations of those columns are independent, so the
    least solution is the only one."""
    target = derivation_apply(ntl, gen.rho)
    if target.is_zero():
        return {}
    columns, images = [], []
    for other in model.gens[: gen.gid]:
        if other.closed and other.degree == gen.degree:
            columns.append({(other.gid,): Fraction(1)})
            images.append(other.rho)
    lower = [g.gid for g in model.gens if g.degree < gen.degree]
    for rep in reference_class_reps(model, gen.degree, lower):
        columns.append(rep.poly)
        images.append(Multivector(model.spec.n, gen.degree, rep.rho))
    rows = [coordinate_vector(x) for x in images]
    coeffs, free = solve_combination(rows, coordinate_vector(target))
    assert coeffs is not None and free == 0
    return matrix_mul([coeffs], columns)[0]


def test_theta_closed_matches_the_two_column_reference(s6, s8, nil322, heisenberg3, torus4):
    rng = random.Random(75)
    # two opposite symbolic Jordan blocks next to a nilpotent one, so that
    # degree-2 closed generators carry a twist while degree-1 classes exist
    jordan = parse_spec(
        '{"n": 6, "symbols": ["b"], "blocks": [{"kind": "real", "size": 2, "re": "b"},'
        ' {"kind": "real", "size": 2, "re": "-b"}, {"kind": "real", "size": 2}]}'
    )
    cases = [(s6, 4), (s8, 4), (nil322, 4), (heisenberg3, 4), (torus4, 4), (jordan, 3)]
    cases += [(random_unimodular_spec(rng, n_max=6), rng.randint(1, 4)) for _ in range(20)]
    twisted_degrees = []
    for spec, bound in cases:
        model = build_minimal_model(spec, bound)
        tm = build_twisted_model(spec, model)
        ntl = nilpotent_log(spec)
        degrees = set()
        for gen in model.gens:
            if gen.closed:
                assert tm.theta[gen.gid] == _reference_theta_closed(model, ntl, gen)
                if tm.theta[gen.gid]:
                    degrees.add(gen.degree)
        twisted_degrees.append(degrees)
    assert twisted_degrees[1] == {1} and twisted_degrees[2] == {1}  # s8, nil322
    assert twisted_degrees[5] == {1, 2}  # jordan


def test_closed_twist_solves_against_earlier_classes_only():
    # N(a1) = a2, but a2 is realized only by the later generator: out of flag
    # order, so the twist of the first generator must not use the later class
    spec = parse_spec('{"n": 2, "blocks": [{"kind": "real", "size": 2}]}')
    model = MinimalModel(spec, 1)
    for i in (1, 2):
        model.add_generator(1, rho=Multivector.basis_one_form(2, i))
    with pytest.raises(InternalInvariantViolation, match="not realized by earlier classes"):
        build_twisted_model(spec, model)


# Generators as (degree, differential, closed); the twist sends the
# closed degree-2 generator "f" to "e", so theta(dz) is nonzero for the
# last non-closed generator z with dz = f.  A differential may be linear
# here: the solve does not rely on minimality.
_E, _F = {"e": 1}, {"f": 1}
_TWIST_CASES = {
    # only v = g3 with dv = e, created before z, reaches e
    "unique restricted": (
        [("e", 2, None), ("f", 2, None), ("v", 1, _E), ("z", 1, _F)],
        ({("v",): 1}, False),
    ),
    # the closed c lies in the kernel, so v + t*c solves it for every t
    "non-unique restricted": (
        [("e", 2, None), ("f", 2, None), ("c", 1, None), ("v", 1, _E), ("z", 1, _F)],
        ({("v",): 1}, True),
    ),
    # v is created after z, so no degree-1 monomial before z exists
    "unrestricted only": (
        [("e", 2, None), ("f", 2, None), ("z", 1, _F), ("v", 1, _E)],
        ({("v",): 1}, True),
    ),
    # e itself is created after z: theta(dz) lies outside the restriction
    "rhs outside the restriction": (
        [("c", 1, None), ("f", 2, None), ("z", 1, _F), ("e", 2, None), ("v", 1, _E)],
        ({("v",): 1}, True),
    ),
    # nothing has e as its differential
    "no solution": (
        [("e", 2, None), ("f", 2, None), ("c", 1, None), ("z", 1, _F)],
        None,
    ),
}


def _twist_case(spec, layout):
    model = MinimalModel(spec, 2)
    gid = {name: i for i, (name, _, _) in enumerate(layout)}
    for name, degree, differential in layout:
        model.add_generator(
            degree,
            {(gid[n],): Fraction(c) for n, c in (differential or {}).items()},
            closed=differential is None,
        )
    tm = TwistedModel(model, {gid["f"]: {(gid["e"],): Fraction(1)}}, [])
    return model, tm, model.gens[gid["z"]], gid


@pytest.mark.parametrize("case", sorted(_TWIST_CASES))
def test_theta_nonclosed_solves_a_nonzero_rhs(s6, case):
    layout, expected = _TWIST_CASES[case]
    model, tm, gen, gid = _twist_case(s6, layout)
    assert tm.theta_poly(gen.differential)
    reference = _reference_theta_nonclosed(model, tm, gen)
    if expected is None:
        assert reference is None
        with pytest.raises(InternalInvariantViolation):
            _theta_nonclosed(model, tm, gen)
        return
    poly, chose = expected
    expected = ({tuple(gid[n] for n in m): Fraction(c) for m, c in poly.items()}, chose)
    assert reference == expected
    assert _theta_nonclosed(model, tm, gen) == expected


def test_model_polynomials_store_no_zero(s6, s8, heisenberg3):
    # lhs == rhs compares model polynomials exactly only because none of
    # them stores a zero coefficient
    rng = random.Random(74)
    specs = [s6, s8, heisenberg3] + [random_unimodular_spec(rng, n_max=5) for _ in range(6)]
    for spec in specs:
        model = build_minimal_model(spec, 4)
        tm = build_twisted_model(spec, model)
        polys = [g.differential for g in model.gens] + list(tm.theta.values())
        polys += [tm.theta_poly(g.differential) for g in model.gens]
        for k in range(1, 6):
            monos = model.monomials(k)
            polys += [model.d_mono(m) for m in monos]
            polys += [tm.theta_poly({m: Fraction(1)}) for m in monos]
            if monos:
                # test-built input may itself carry zero coefficients
                poly = {m: Fraction(rng.randint(-2, 2)) for m in rng.sample(monos, min(6, len(monos)))}
                polys += [model.d_poly(poly), tm.theta_poly(poly)]
        assert any(polys)
        assert all(c != 0 for p in polys for c in p.values())


# The hand specs of the formality cross-check: b2b2, b2b2c and cpx2 fail first at
# degrees 2, 2 and 3; frac3 has a fractional resonance; b3b1 pairs a chain of
# length 3 with eigenvalue b against a single coordinate with -3b.
_CROSS_CHECK_HAND_SPECS = (
    '{"n": 4, "symbols": ["b"], "blocks": [{"kind": "real", "size": 2, "re": "b"},'
    ' {"kind": "real", "size": 2, "re": "-b"}]}',
    '{"n": 6, "symbols": ["b"], "blocks": [{"kind": "real", "size": 2, "re": "b"},'
    ' {"kind": "real", "size": 2, "re": "-b"}, {"kind": "complex", "size": 1, "im_resonant": "1"}]}',
    '{"n": 6, "symbols": ["b"], "blocks": [{"kind": "complex", "size": 2, "re": "b",'
    ' "im_resonant": "1"}, {"kind": "real", "size": 2, "re": "-2*b"}]}',
    '{"n": 8, "blocks": [{"kind": "complex", "size": 2, "im_resonant": "1/3"},'
    ' {"kind": "complex", "size": 1, "im_resonant": "1/3"}, {"kind": "real", "size": 2}]}',
    '{"n": 5, "symbols": ["b"], "blocks": [{"kind": "real", "size": 3, "re": "b"},'
    ' {"kind": "real", "size": 1, "re": "-3*b"}, {"kind": "real", "size": 1}]}',
)


def _first_slice_with_a_shift(spec, k_max):
    """The least k <= k_max at which the shift is nonzero on the degree-k unipotent
    slice, i.e. its kernel there is smaller than the slice; None when there is none."""
    for k in range(1, k_max + 1):
        if len(shift_slice(spec, k)[0]) < len(nilpotent_submodule(spec, k)):
            return k
    return None


def test_first_failing_degree_is_the_first_slice_the_shift_moves(s6, s8, torus3, torus4, heisenberg3):
    # Measured, not proved here: on these 133 specs the twisted model first fails
    # the formality criterion in the least degree whose unipotent slice the shift
    # N does not kill.  The source paper ("Formality and symplectic structures of
    # almost abelian solvmanifolds", arXiv 1302.0762) reads formality off N through
    # the fibration over the circle; this test only records the identity on the
    # first failing degree (later statuses do not follow the slices).
    specs = [s6, s8, torus3, torus4, heisenberg3]
    specs += [parse_spec(json.dumps(doc)) for doc in (SPECS["s10"], SPECS["nil11"], NIL322)]
    specs += [random_resonant_spec(random.Random(seed), n_max=7) for seed in range(60)]
    specs += [random_unimodular_spec(random.Random(seed), n_max=7) for seed in range(1000, 1060)]
    specs += [parse_spec(text) for text in _CROSS_CHECK_HAND_SPECS]
    assert len(specs) == 133
    first = Counter()
    for spec in specs:
        verdict = k_formality(spec, 4)
        assert verdict.first_fail_degree == _first_slice_with_a_shift(spec, 4), spec
        first[verdict.first_fail_degree] += 1
    # the witness path above degree 1 is reached: twice at degree 2, once at 3
    assert first == {1: 83, 2: 2, 3: 1, None: 47}


def test_nilmanifolds_fail_at_degree_one_unless_tori(rng):
    # Hasegawa (Proc. AMS 106, 1989): a nilmanifold is formal only when it is a
    # torus.  Nilpotent real Jordan blocks of seeded sizes give a nilpotent Lie
    # algebra; one of size at least 2 makes it non-abelian.
    draws = 0
    for _ in range(30):
        sizes, left = [], rng.randint(1, 6)
        while left:
            sizes.append(rng.randint(1, left) if rng.random() < 0.5 else 1)
            left -= sizes[-1]
        spec = parse_spec(json.dumps({"n": sum(sizes), "blocks": [{"kind": "real", "size": m} for m in sizes]}))
        verdict = k_formality(spec, 3)
        if max(sizes) == 1:
            assert verdict.passed and verdict.first_fail_degree is None, sizes
        else:
            assert verdict.first_fail_degree == 1, sizes
        draws += max(sizes) == 1
    assert 0 < draws < 30
