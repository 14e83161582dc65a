"""Instance parsing, weights, shift and modified actions."""

from fractions import Fraction

import pytest

from conftest import random_unimodular_spec
from solvform import (
    HypothesisError,
    SchemaError,
    emit_spec,
    generator_weights,
    modified_matrix,
    nilpotent_log,
    parse_spec,
)
from solvform.exterior import Multivector, derivation_apply
from solvform.scalars import ScalarLC
import random


def test_parse_s6_fixture(s6):
    assert s6.n == 5
    assert [b.kind for b in s6.blocks] == ["real", "complex"]
    assert s6.blocks[1].im_resonant == 1
    assert s6.block_starts() == [1, 4]


def test_parse_s8_fixture(s8):
    assert s8.n == 7
    assert s8.symbols == ("b",)
    assert [str(b.re) for b in s8.blocks] == ["0", "b", "-b"]


def test_dimension_mismatch_rejected():
    doc = """{"n": 5, "blocks": [{"kind": "real", "size": 3, "re": "0"},
                                 {"kind": "real", "size": 1, "re": "0"}]}"""
    with pytest.raises(SchemaError, match="dimension 4 but n = 5"):
        parse_spec(doc)


def test_unknown_fields_rejected():
    with pytest.raises(SchemaError, match="unknown field"):
        parse_spec('{"n": 1, "blocks": [{"kind": "real", "size": 1}], "extra": 1}')
    with pytest.raises(SchemaError, match="unknown field"):
        parse_spec('{"n": 1, "blocks": [{"kind": "real", "size": 1, "shift": 2}]}')


@pytest.mark.parametrize(
    "doc, where",
    [
        ('{"n": true, "blocks": [{"kind": "real", "size": 1}]}', "field 'n'"),
        ('{"n": 1, "blocks": [{"kind": "real", "size": true}]}', r"blocks\[0\]\.size"),
    ],
)
def test_booleans_rejected_as_integers(doc, where):
    with pytest.raises(SchemaError, match=where):
        parse_spec(doc)


def test_real_block_with_imaginary_part_rejected():
    doc = '{"n": 1, "blocks": [{"kind": "real", "size": 1, "im_resonant": "1"}]}'
    with pytest.raises(SchemaError, match="real block"):
        parse_spec(doc)


def test_undeclared_symbol_rejected():
    doc = '{"n": 1, "blocks": [{"kind": "real", "size": 1, "re": "b"}]}'
    with pytest.raises(SchemaError, match="undeclared symbol"):
        parse_spec(doc)


def test_emit_parse_round_trip(s6, s8, torus3, heisenberg3):
    from conftest import random_resonant_spec

    for spec in (s6, s8, torus3, heisenberg3):
        assert parse_spec(emit_spec(spec)) == spec
    rng = random.Random(31)
    for _ in range(25):
        spec = random_unimodular_spec(rng)
        assert parse_spec(emit_spec(spec)) == spec
    for _ in range(25):
        spec = random_resonant_spec(rng)  # includes negative resonances
        assert parse_spec(emit_spec(spec)) == spec


def test_generator_weights_s6(s6):
    slots = generator_weights(s6)
    assert [s.slot for s in slots] == [1, 2, 3, 4, 5]
    for s in slots[:3]:
        assert s.weight.re.is_zero() and s.weight.im_resonant == 0 and s.conj == s.slot
    z, zbar = slots[3], slots[4]
    assert (z.conj, zbar.conj) == (5, 4)
    assert z.weight.im_resonant == 1 and zbar.weight.im_resonant == -1


def test_generator_weights_s8(s8):
    slots = generator_weights(s8)
    res = [str(s.weight.re) for s in slots]
    assert res == ["0", "0", "0", "b", "b", "-b", "-b"]
    ims = [s.weight.im_resonant for s in slots]
    assert ims == [0, 0, 0, 1, -1, 1, -1]


def test_generator_weights_zero_matrix(torus3):
    for s in generator_weights(torus3):
        assert s.weight.re.is_zero() and s.weight.im_resonant == 0


def test_nilpotent_log_images(s6, s8, torus4):
    shift6 = nilpotent_log(s6)
    assert shift6.image_of(1) == Multivector.basis_one_form(5, 2)
    assert shift6.image_of(2) == Multivector.basis_one_form(5, 3)
    for i in (3, 4, 5):
        assert shift6.image_of(i).is_zero()
    shift8 = nilpotent_log(s8)
    assert shift8.image_of(1) == Multivector.basis_one_form(7, 2)
    assert shift8.image_of(2) == Multivector.basis_one_form(7, 3)
    for i in range(3, 8):
        assert shift8.image_of(i).is_zero()
    assert nilpotent_log(torus4).is_zero()


def test_nilpotent_log_is_nilpotent(s6, s8, heisenberg3):
    rng = random.Random(32)
    specs = [s6, s8, heisenberg3] + [random_unimodular_spec(rng) for _ in range(10)]
    for spec in specs:
        shift = nilpotent_log(spec)
        for i in range(1, spec.n + 1):
            x = Multivector.basis_one_form(spec.n, i)
            for _ in range(spec.n + 1):
                x = derivation_apply(shift, x)
            assert x.is_zero()


def test_modified_matrix_s6(s6):
    mod = modified_matrix(s6)
    assert mod.image_of(1) == Multivector.basis_one_form(5, 2)
    assert mod.image_of(2) == Multivector.basis_one_form(5, 3)
    for i in (3, 4, 5):
        assert mod.image_of(i).is_zero()


def test_modified_matrix_s8(s8):
    mod = modified_matrix(s8)
    b = ScalarLC.symbol("b")
    assert mod.image_of(4) == Multivector(7, 1, [((4,), b)])
    assert mod.image_of(5) == Multivector(7, 1, [((5,), b)])
    assert mod.image_of(6) == Multivector(7, 1, [((6,), -b)])
    assert mod.image_of(7) == Multivector(7, 1, [((7,), -b)])
    assert mod.image_of(1) == Multivector.basis_one_form(7, 2)


def test_modified_matrix_rejects_fractional_resonance():
    doc = '{"n": 2, "blocks": [{"kind": "complex", "size": 1, "im_resonant": "1/2"}]}'
    spec = parse_spec(doc)
    with pytest.raises(HypothesisError, match="modification hypothesis"):
        modified_matrix(spec)


def test_modified_minus_shift_is_diagonal_of_real_parts(s6, s8):
    rng = random.Random(33)
    specs = [s6, s8] + [random_unimodular_spec(rng) for _ in range(10)]
    for spec in specs:
        mod, shift = modified_matrix(spec), nilpotent_log(spec)
        for i in range(1, spec.n + 1):
            diff = mod.image_of(i) + (-shift.image_of(i))
            expected = Multivector.basis_one_form(spec.n, i).scaled(spec.coordinate_re(i))
            assert diff == expected


def test_trace_is_sum_of_real_parts(s8):
    assert modified_matrix(s8).trace().is_zero()
    doc = '{"n": 2, "blocks": [{"kind": "real", "size": 2, "re": "1/3"}]}'
    spec = parse_spec(doc)
    assert modified_matrix(spec).trace() == ScalarLC(Fraction(2, 3))
