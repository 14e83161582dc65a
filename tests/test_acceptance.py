"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and asserts the criterion at its stated tolerance, which
is literal equality everywhere: all arithmetic in the package is exact.
"""

import random
import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from conftest import (
    in_submodule_span,
    k_formality,
    random_multivector,
    random_resonant_spec,
    random_strict_endo,
    random_unimodular_spec,
    rank,
    wedge,
)
from solvform import (
    CEElement,
    Multivector,
    betti_numbers,
    build_minimal_model,
    build_twisted_model,
    ce_differential,
    closed_two_classes,
    cohomology,
    find_symplectic,
    formality_from_twisted,
    nilpotent_submodule,
    total_model_dump,
    verify_quasi_iso,
    verify_symplectic,
)
from solvform.cohomology import trace_is_zero
from solvform.exterior import coordinate_vector, derivation_apply
from solvform.oracle import monomials, nilpotent_submodule_oracle, spans_match


class _criterion:
    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE CRITERION {self.number}: {verdict} — {self.description}")
        return False


def test_criterion_1_full_invariant_table(s6):
    with _criterion(1, "dimension-6 example: invariant submodule is the full exterior algebra"):
        dims = []
        for k in range(1, 6):
            basis = nilpotent_submodule(s6, k)
            dims.append(len(basis))
            assert basis == [Multivector.monomial(5, key) for key in monomials(5, k)]
        assert dims == [5, 10, 10, 5, 1]


def test_criterion_2_betti_and_representatives(s6):
    with _criterion(2, "dimension-6 example: betti numbers (4,7,8) with the listed monomials"):
        betti = betti_numbers(s6)
        assert (betti[1], betti[2], betti[3]) == (4, 7, 8)
        expected = {
            1: {(3,), (4,), (5,), (6,)},
            2: {(1, 6), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)},
            3: {
                (1, 2, 3), (1, 2, 6), (1, 4, 6), (1, 5, 6),
                (2, 3, 4), (2, 3, 5), (3, 4, 5), (4, 5, 6),
            },
        }
        for k, monos in expected.items():
            slice_ = cohomology(s6, k)
            got = set()
            for rep in slice_.kernel_reps:
                assert len(rep.terms) == 1  # representatives are single monomials here
                ((key, coeff),) = rep.terms.items()
                assert abs(coeff) == 1  # equality up to sign
                got.add(key)
            for rep in slice_.coker_reps:
                ((key, coeff),) = rep.terms.items()
                assert abs(coeff) == 1
                got.add(tuple(sorted(key + (6,))))
            assert got == monos


def _twist_chains(dump_lines):
    """Extract tau values and D-structure of degree-1 generators from a dump."""
    taus, twists = {}, {}
    for line in dump_lines:
        m = re.match(r"D\((g\d+)\) = (.*), tau\(\1\) = (.*)$", line)
        if not m:
            continue
        name, rhs, tau = m.groups()
        taus[name] = tau
        if rhs == "0":
            twists[name] = None
        else:
            mm = re.fullmatch(r"(g\d+)\*A", rhs)
            twists[name] = mm.group(1) if mm else rhs
    return taus, twists


def test_criterion_3_model_and_twist(s6):
    with _criterion(3, "dimension-6 example: total model matches the two-step chain; not 1-formal"):
        model = build_minimal_model(s6, 2)
        tm = build_twisted_model(model)
        taus, twists = _twist_chains(total_model_dump(tm).splitlines())
        assert len(taus) == 5
        closed_zero = [g for g, t in twists.items() if t is None]
        assert len(closed_zero) == 3  # three generators with D = 0 besides A
        by_tau = {t: g for g, t in taus.items()}
        # the chain a1 -> a2 -> a3 up to renaming of the generators
        assert twists[by_tau["a1"]] == by_tau["a2"]
        assert twists[by_tau["a2"]] == by_tau["a3"]
        assert twists[by_tau["a3"]] is None
        verdict = formality_from_twisted(tm, 1)
        assert not verdict.passed and verdict.first_fail_degree == 1


def test_criterion_4_symplectic(s6):
    with _criterion(4, "dimension-6 example: closed 2-classes and a verified symplectic witness"):
        assert closed_two_classes(s6) == [
            Multivector.monomial(5, key) for key in ((2, 3), (3, 4), (3, 5), (4, 5))
        ]
        witness = find_symplectic(s6)
        assert witness is not None
        ok, certificates = verify_symplectic(s6, witness)
        assert ok
        assert witness.omega_top != 0
        assert certificates["expansion_identity"]


def test_criterion_5_dimension_8_example(s8):
    with _criterion(5, "dimension-8 example: profile (3,7,13,13,7,3,1), H^1, and the failing chain"):
        dims = [len(nilpotent_submodule(s8, k)) for k in range(1, 8)]
        assert dims == [3, 7, 13, 13, 7, 3, 1]
        assert nilpotent_submodule(s8, 1) == [
            Multivector.basis_one_form(7, i) for i in (1, 2, 3)
        ]
        slice_ = cohomology(s8, 1)
        assert slice_.betti == 2
        assert [str(v) for v in slice_.kernel_reps] == ["a3"]
        assert [str(v) for v in slice_.coker_reps] == ["1"]  # the class of the base line
        model = build_minimal_model(s8, 1)
        tm = build_twisted_model(model)
        taus, twists = _twist_chains(total_model_dump(tm).splitlines())
        by_tau = {t: g for g, t in taus.items()}
        assert twists[by_tau["a1"]] == by_tau["a2"]
        assert twists[by_tau["a2"]] == by_tau["a3"]
        assert twists[by_tau["a3"]] is None
        verdict = formality_from_twisted(tm, 1)
        assert not verdict.passed and verdict.first_fail_degree == 1
        assert verdict.statuses[0].witness is not None


def test_criterion_6_oracle_equivalence(s6, torus3, torus4, heisenberg3):
    with _criterion(6, "enumeration equals brute-force iteration on every resonant spec"):
        rng = random.Random(20260806)
        specs = [s6, torus3, torus4, heisenberg3]
        specs += [random_resonant_spec(rng, n_max=5) for _ in range(20)]
        for spec in specs:
            for k in range(spec.n + 1):
                assert spans_match(
                    nilpotent_submodule(spec, k), nilpotent_submodule_oracle(spec, k)
                )


def test_criterion_7_property_suite(s6, s8, torus4, heisenberg3):
    with _criterion(7, "generated-input property suite, >= 100 cases per property"):
        rng = random.Random(20260807)

        # graded commutativity and Leibniz for the derivation extension
        for _ in range(120):
            n = rng.randint(2, 6)
            p, q = rng.randint(0, 3), rng.randint(0, 3)
            a = random_multivector(rng, n, p)
            b = random_multivector(rng, n, q)
            sign = -1 if (p * q) % 2 else 1
            assert wedge(a, b) == wedge(b, a).scaled(sign)
            endo = random_strict_endo(rng, n)
            lhs = derivation_apply(endo, wedge(a, b))
            rhs = wedge(derivation_apply(endo, a), b) + wedge(a, derivation_apply(endo, b))
            assert lhs == rhs

        # differential of the modified complex squares to zero
        ce_specs = [s6, s8] + [random_unimodular_spec(rng) for _ in range(15)]
        for case in range(120):
            spec = ce_specs[case % len(ce_specs)]
            k = rng.randint(0, spec.n)
            elt = CEElement(
                random_multivector(rng, spec.n, k),
                random_multivector(rng, spec.n, k - 1) if k >= 1 else None,
            )
            once = ce_differential(spec, elt)
            assert ce_differential(spec, once).is_zero()

        # model differential, twisted differential, quasi-isomorphism,
        # wedge closure and duality across a pool of specs
        pool = [s6, s8, torus4, heisenberg3] + [
            random_unimodular_spec(rng, n_max=5) for _ in range(12)
        ]
        d_square_cases = twist_cases = closure_cases = duality_cases = 0
        for spec in pool:
            model = build_minimal_model(spec, 3)
            tm = build_twisted_model(model)
            for g in model.gens:
                assert not model.d_poly(g.differential)
                lhs = tm.theta_poly(g.differential)
                rhs = model.d_poly(tm.theta.get(g.gid, {}))
                assert lhs == rhs
                d_square_cases += 1
                twist_cases += 1
            for k in range(1, 4):
                monos = model.monomials(k)
                if not monos:
                    continue
                poly = {
                    m: Fraction(rng.randint(-2, 2))
                    for m in rng.sample(monos, min(3, len(monos)))
                }
                assert not model.d_poly(model.d_poly(poly))
                lhs = tm.theta_poly(model.d_poly(poly))
                rhs = model.d_poly(tm.theta_poly(poly))
                assert lhs == rhs
                d_square_cases += 1
                twist_cases += 1
            assert all(entry["ok"] for entry in verify_quasi_iso(model).values())
            bases = {k: nilpotent_submodule(spec, k) for k in range(spec.n + 1)}
            for i in range(1, spec.n):
                for j in range(i, spec.n + 1 - i):
                    for a in bases[i][:3]:
                        for b in bases[j][:3]:
                            assert in_submodule_span(bases[i + j], wedge(a, b))
                            closure_cases += 1
        duality_pool = pool + [random_unimodular_spec(rng, n_max=6) for _ in range(12)]
        for spec in duality_pool:
            if trace_is_zero(spec):
                betti = betti_numbers(spec)
                total = spec.n + 1
                for k in range(total + 1):
                    assert betti[k] == betti[total - k]
                    duality_cases += 1
        assert d_square_cases >= 100
        assert twist_cases >= 100
        assert closure_cases >= 100
        assert duality_cases >= 100


def test_criterion_8_known_classifications(torus3, torus4, heisenberg3):
    with _criterion(8, "tori are formal through the bound; the Heisenberg quotient is not 1-formal"):
        for spec in (torus3, torus4):
            model = build_minimal_model(spec, 3)
            tm = build_twisted_model(model)
            assert all(not poly for poly in tm.theta.values())
            assert formality_from_twisted(tm, 3).passed
        verdict = k_formality(heisenberg3, 1)
        assert not verdict.passed and verdict.first_fail_degree == 1


def test_criterion_9_difficult_model_stage(s8):
    with _criterion(9, "dimension-8 example: degree-2/3 generator counts vs. brute-force kernel"):
        model = build_minimal_model(s8, 3)
        counts = model.generator_counts()
        assert counts[2] == (4, 0)
        ones = [g.rho for g in model.gens if g.degree == 1 and g.closed]
        twos = [g.rho for g in model.gens if g.degree == 2 and g.closed]
        images = []
        for a, b in combinations(ones, 2):
            for w in twos:
                images.append(wedge(wedge(a, b), w))
        for w1, w2 in combinations_with_replacement(twos, 2):
            images.append(wedge(w1, w2))
        for quad in combinations(ones, 4):
            acc = Multivector.unit(s8.n)
            for v in quad:
                acc = wedge(acc, v)
            images.append(acc)
        rows = [coordinate_vector(v) for v in images]
        kernel_dim = len(rows) - rank(rows)
        non_closed_three = sum(
            1 for g in model.gens if g.degree == 3 and not g.closed
        )
        assert non_closed_three == kernel_dim
        assert kernel_dim == 9  # frozen after independent hand expansion
