"""The independent checks of ``tests/certify.py`` on today's reports.

``certify_report`` recounts the unipotent slices by brute force over the
k-subsets of the slots and applies the modified action, built from the input
document, to every closed cohomology representative.  It runs on the
fixtures, nil7, nil322, s10 and nil11 at K=3 and on the 120 seeded draws, and
on specs outside the modification hypothesis, where it checks the dimensions
only.  Reports edited by hand (a non-resonant monomial in a basis, a sign
flipped in a kernel representative) stand in for pipeline bugs here.

``betti_numbers`` builds the modified action from the input document and takes
the ranks of its derivation on every degree with its own elimination.

``verify`` rebuilds a report with the code that wrote it; ``certify_dumps``
reads the model and total-model dumps back with its own parser and products.
Dropping the odd-odd sign of ``MinimalModel.mono_mul`` changes the s8 K=6
model, and that build's own ``verify`` accepts its report; this check finds
d(d(g)) != 0 on 40 of its 157 generators.  A realization product without the
reordering sign in ``MinimalModel._rho_mono`` changes the s8 K=6 and b2b2 K=6
models, whose own ``verify`` accepts them; the chain-map check finds
rho(d(g)) != 0 on g12 and g10.  Hand-edited dumps stand in for such bugs here.
"""

import copy
import json
from fractions import Fraction
from math import comb

import pytest

from certify import (
    Algebra, betti_numbers, certify_dumps, certify_report, linear_form, parse_form, parse_poly, realize, wedge
)
from solvform import build_report, fixture_path, load_spec, parse_spec
from test_golden_reports import B2B2, MULTI_TERM, NIL322, SPECS, _digest_specs

FIXTURES = ("s6", "s8", "torus3", "torus4", "heisenberg3")
CASES = [(name, k) for name in FIXTURES for k in range(1, 5)]
CASES += [("s8", 6), ("nil322", 3), ("b2b2", 6)]


NIL7 = {"n": 7, "blocks": [{"kind": "real", "size": 7}]}
# real parts off the diagonal's zero, summing to zero
SPLIT = {"n": 3, "blocks": [{"kind": "real", "size": 2, "re": "1/2"}, {"kind": "real", "size": 1, "re": "-1"}]}


@pytest.mark.parametrize("name", ["torus3", "torus4", "heisenberg3", "s6", "nil7", "nil322", "split"])
def test_betti_numbers_match_an_independent_elimination(name):
    docs = {"nil7": NIL7, "nil322": NIL322, "split": SPLIT}
    doc = docs[name] if name in docs else json.loads(fixture_path(name).read_text())
    report = build_report(parse_spec(json.dumps(doc)), 3, stages=("cohomology",))
    assert report["cohomology"]["betti"] == betti_numbers(doc)


def test_the_independent_betti_numbers_see_the_shift_and_the_real_parts():
    # heisenberg3 is torus3 with its two coordinates in one shift chain; SPLIT with
    # its real parts dropped is a size-2 chain next to a size-1 block
    torus3 = json.loads(fixture_path("torus3").read_text())
    heisenberg3 = json.loads(fixture_path("heisenberg3").read_text())
    assert betti_numbers(torus3) == {"0": 1, "1": 3, "2": 3, "3": 1}
    assert betti_numbers(heisenberg3) == {"0": 1, "1": 2, "2": 2, "3": 1}
    flat = {**SPLIT, "blocks": [{**block, "re": "0"} for block in SPLIT["blocks"]]}
    assert betti_numbers(flat) != betti_numbers(SPLIT)
    with pytest.raises(ValueError, match="not an integer resonance"):
        betti_numbers({"n": 2, "blocks": [{"kind": "complex", "size": 1, "im_resonant": "1/2"}]})


def _claims(spec, stages=("unipotent", "cohomology")):
    return build_report(spec, 3, stages=stages)


def test_unipotent_and_cohomology_claims_pass_the_independent_check():
    # the fixtures, nil7, nil322, s10, nil11 and the 120 seeded draws
    proper = 0
    for spec in _digest_specs():
        report = _claims(spec)
        assert certify_report(report) == [], spec
        proper += sum(dim < comb(spec.n, int(k)) for k, dim in report["unipotent"]["dims"].items())
    # the checks see proper slices, which the oracle never compares
    assert proper > 100


@pytest.mark.parametrize("name", ["frac3", "frac4"])
def test_dimensions_outside_the_hypothesis_pass_the_independent_check(name):
    report = _claims(parse_spec(MULTI_TERM[name]), stages=("unipotent",))
    assert certify_report(report) == []
    dim = report["unipotent"]["dims"]["2"]
    report["unipotent"]["dims"]["2"] += 1
    assert certify_report(report) == [f"unipotent degree 2: dimension {dim + 1}, not {dim}"]


def test_a_symbolic_rotation_is_counted_by_its_resonances():
    # outside the hypothesis by its symbolic rotation: a monomial is resonant when
    # the c parts of its slots cancel, so z1 * conj(z1) and z1 * conj(z2) are
    doc = {"n": 4, "symbols": ["c"], "blocks": [{"kind": "complex", "size": 1, "im_symbolic": "c"}] * 2}
    report = _claims(parse_spec(json.dumps(doc)), stages=("unipotent",))
    assert report["unipotent"]["dims"] == {"0": 1, "1": 0, "2": 4, "3": 0, "4": 1}
    assert certify_report(report) == []


def test_a_non_resonant_monomial_in_a_basis_is_refused():
    # s10's degree-1 slice is a1, a2, a3, a8, a9: a4 carries the real part b
    report = _claims(parse_spec(json.dumps(SPECS["s10"])))
    assert report["unipotent"]["bases"]["1"] == ["a1", "a2", "a3", "a8", "a9"]
    edit = copy.deepcopy(report)
    edit["unipotent"]["bases"]["1"][3] = "a4"
    assert certify_report(edit) == [
        "unipotent degree 1: a4 is not a resonant unit form",
        "unipotent degree 1: the basis misses a8",
    ]
    edit["unipotent"]["bases"]["1"] = ["a1", "a2", "a3", "a9", "a8"]
    assert certify_report(edit) == ["unipotent degree 1: the basis is not in lexicographic order"]


def test_a_sign_flipped_in_a_kernel_representative_is_refused():
    report = _claims(parse_spec(json.dumps(NIL7)))
    closed = "a147 - a156 - 2*a237 + a246 - a345"
    assert report["cohomology"]["representatives"]["3"][0] == closed
    edit = copy.deepcopy(report)
    edit["cohomology"]["representatives"]["3"][0] = closed.replace("- a156", "+ a156")
    assert certify_report(edit) == ["cohomology H^3: a147 + a156 - 2*a237 + a246 - a345 is not closed at {}"]


def test_a_symbolic_representative_is_checked_at_three_points():
    # in s10, a4 and a6 carry the real parts b and -b: a46 is in the slice, a4 is not
    report = _claims(parse_spec(json.dumps(SPECS["s10"])))
    assert "a46" in report["unipotent"]["bases"]["2"] and "a4" not in report["unipotent"]["bases"]["1"]
    edit = copy.deepcopy(report)
    edit["cohomology"]["representatives"]["1"].append("a4")
    failures = certify_report(edit)
    assert len(failures) == 3 and all(line.startswith("cohomology H^1: a4 is not closed at {'b': ") for line in failures)


def test_the_input_and_form_parsers():
    assert linear_form("2 - 3/4*b") == {"": 2, "b": Fraction(-3, 4)}
    assert linear_form("-b + 0.25") == {"b": -1, "": Fraction(1, 4)}
    assert linear_form("1/3 + 2/3") == {"": 1} and linear_form(3) == {"": 3} and linear_form("b - b") == {}
    assert parse_form("a12 - 2*a(3,10) + -1/2*a45") == {(0, 1): 1, (2, 9): -2, (3, 4): Fraction(-1, 2)}
    assert parse_form("1") == {(): 1}


def _dumps(name, k):
    texts = {"nil322": json.dumps(NIL322), "b2b2": B2B2}
    spec = parse_spec(texts[name]) if name in texts else load_spec(fixture_path(name))
    report = build_report(spec, k, stages=("model", "formality"))
    return report["model"]["dump"], report["formality"]["total_model"]


@pytest.mark.parametrize("name, k", CASES)
def test_report_dumps_pass_the_independent_check(name, k):
    assert certify_dumps(*_dumps(name, k)) == []


def test_a_wrong_sign_in_a_differential_breaks_d_squared():
    # d(g17) = g4*g9 - g5*g8 with g4, g5 closed of degree 2, dg9 = g4*g5 and
    # dg8 = g4^2; with "+" the square is 2*g4^2*g5
    model, total = _dumps("s8", 4)
    edit = [line.replace("g4*g9 - g5*g8", "g4*g9 + g5*g8") for line in model]
    assert edit != model
    failures = certify_dumps(edit, [line.replace("g4*g9 - g5*g8", "g4*g9 + g5*g8") for line in total])
    assert failures == ["g17: d(d(g17)) is not zero"]
    # an edit to one dump only is a mismatch between them
    assert certify_dumps(edit, total) == [
        "g17: d(d(g17)) is not zero",
        "the total model line 'D(g17) = g4*g9 - g5*g8, tau(g17) = 0' does not repeat its model line",
    ]


def test_a_twist_that_does_not_commute_with_d_is_refused():
    # on b2b2 at K=3, theta(g7) = 2*g6 is the one solution of d(theta g7) = theta(g1*g4)
    model, total = _dumps("b2b2", 3)
    assert "D(g7) = g1*g4 + (2*g6)*A, tau(g7) = 0" in total
    edit = [line.replace("(2*g6)*A", "(3*g6)*A") for line in total]
    assert certify_dumps(model, edit) == ["g7: theta(d(g7)) differs from d(theta(g7))"]


def test_a_realization_that_is_not_a_chain_map_is_refused():
    # on s8 at K=4, rho(d(g12)) = a46 ^ a57 + a47 ^ a56 = -a4567 + a4567; with rho(g4)
    # negated in both dumps the two terms add up
    model, total = _dumps("s8", 4)
    assert "g12: degree 3, non-closed, d(g12) = g4*g7 + g5*g6, rho(g12) = 0" in model
    edit = [line.replace("rho(g4) = a46", "rho(g4) = -a46") for line in model]
    edit_total = [line.replace("tau(g4) = a46", "tau(g4) = -a46") for line in total]
    assert edit != model and edit_total != total
    assert certify_dumps(edit, edit_total) == ["g12: rho(d(g12)) is not zero"]


def test_the_exterior_product_sorts_with_its_sign():
    a = {(0,): 1, (1,): 2}
    assert wedge({(1,): 1}, {(0,): 1}) == {(0, 1): -1}
    assert wedge({(0, 2): 1}, {(1, 3): 3}) == {(0, 1, 2, 3): -3}
    assert wedge(a, a) == {} and wedge({(): 5}, a) == {(0,): 5, (1,): 10}
    # g1 * g2 with g1, g2 -> e0 + 2 e1 and e1: the even g3 -> e01 squares to zero
    assert realize({(1, 2): 3, (3, 3): 1}, {1: a, 2: {(1,): 1}, 3: {(0, 1): 1}}) == {(0, 1): 3}


def test_the_product_is_graded_commutative():
    algebra = Algebra({1: 1, 2: 1, 3: 2})
    assert algebra.mul({(2,): 1}, {(1,): 1}) == {(1, 2): -1}
    assert algebra.mul({(3,): 1}, {(1,): 1}) == {(1, 3): 1}
    assert algebra.mul({(1,): 1}, {(1,): 1}) == {}
    assert algebra.mul({(3,): 1}, {(3,): 1}) == {(3, 3): 1}
    assert parse_poly("-1/2*g1^2 + g1*g3 - 2*g2") == {(1, 1): Fraction(-1, 2), (1, 3): 1, (2,): -2}
