"""Instance parsing, weights, shift and modified actions."""

import json
from fractions import Fraction

import pytest

from conftest import coordinate_re, endo_is_zero, endo_trace, random_unimodular_spec, symbol
from solvform import (
    AlmostAbelianSpec,
    Block,
    HypothesisError,
    SchemaError,
    Weight,
    emit_spec,
    fixture_path,
    generator_weights,
    load_spec,
    modified_matrix,
    nilpotent_log,
    nilpotent_submodule,
    parse_spec,
)
from solvform.exterior import Multivector, derivation_apply
from solvform.monodromy import (
    _nilpotent_submodule,
    _resonant_counts,
    _shift_slice,
    _slot_table,
)
from solvform.report import STAGES, build_report
from solvform.scalars import ScalarLC
from solvform.spectral import _shift_index_map, real_trace
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


@pytest.mark.parametrize("name", ["2", "", "x*y", "1b", "b c"])
def test_symbol_names_that_no_literal_can_reference_rejected(name, tmp_path, capsys):
    # "2" used to be accepted and then read as the rational 2 in "re"
    from solvform.cli import main

    doc = json.dumps(
        {
            "n": 2,
            "symbols": [name],
            "blocks": [
                {"kind": "real", "size": 1, "re": "2"},
                {"kind": "real", "size": 1, "re": "-2"},
            ],
        }
    )
    with pytest.raises(SchemaError, match="field 'symbols' has invalid name"):
        parse_spec(doc)
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


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
    assert endo_is_zero(nilpotent_log(torus4))


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
    b = symbol("b")
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
    specs = [s6, s8] + [random_unimodular_spec(rng) for _ in range(10)] + _reference_specs()
    for spec in specs:
        mod, shift = modified_matrix(spec), nilpotent_log(spec)
        for i in range(1, spec.n + 1):
            diff = mod.image_of(i) + (-shift.image_of(i))
            expected = Multivector.basis_one_form(spec.n, i).scaled(coordinate_re(spec, i))
            assert diff == expected


def _random_real_part_spec(rng) -> AlmostAbelianSpec:
    """Real and integer-resonant complex blocks with random symbolic real parts."""
    blocks, used = [], 0
    while used < 7 and (not blocks or rng.random() < 0.7):
        re = ScalarLC(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        if rng.random() < 0.5:
            re = re + symbol(rng.choice("bc"), rng.randint(-2, 2))
        if rng.random() < 0.5:
            blocks.append(Block("real", rng.randint(1, 3), re))
        else:
            blocks.append(Block("complex", rng.randint(1, 2), re, Fraction(rng.randint(-2, 2))))
        used += blocks[-1].real_dim
    return AlmostAbelianSpec(used, tuple(blocks), symbols=("b", "c"))


def _reference_specs():
    """The fixtures and 40 seeded specs whose blocks carry random real parts."""
    rng = random.Random(34)
    specs = [load_spec(fixture_path(name)) for name in ("heisenberg3", "s6", "s8", "torus3", "torus4")]
    return specs + [_random_real_part_spec(rng) for _ in range(40)]


def test_real_trace_sums_the_blocks():
    # one term per block equals the per-coordinate sum of the real parts
    specs = _reference_specs()
    for spec in specs:
        expected = sum((coordinate_re(spec, i) for i in range(1, spec.n + 1)), ScalarLC(0))
        assert real_trace(spec) == expected
    assert sum(not real_trace(spec).is_zero() for spec in specs) > 20


def test_formality_report_builds_few_symbolic_scalars(monkeypatch, s8):
    # the trace sums one term per block and the weight sums run on integer
    # tuples, so one s8 report through formality builds at most 4 ScalarLCs
    # (11 when the trace was summed per coordinate)
    for memo in (_nilpotent_submodule, _resonant_counts, _shift_index_map, _shift_slice, _slot_table):
        memo.cache_clear()
    built = 0
    plain_init = ScalarLC.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        plain_init(self, *args, **kwargs)

    monkeypatch.setattr(ScalarLC, "__init__", counting_init)
    build_report(s8, 4, stages=STAGES[: STAGES.index("formality") + 1])
    assert built <= 4


def test_trace_is_sum_of_real_parts(s8):
    assert endo_trace(modified_matrix(s8)) == 0
    doc = '{"n": 2, "blocks": [{"kind": "real", "size": 2, "re": "1/3"}]}'
    spec = parse_spec(doc)
    assert endo_trace(modified_matrix(spec)) == ScalarLC(Fraction(2, 3))


def test_two_parses_give_one_memo_key():
    text = fixture_path("s8").read_text()
    first, second = parse_spec(text), parse_spec(text)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert generator_weights(first) == generator_weights(second)
    nilpotent_submodule(first, 2)
    before = _nilpotent_submodule.cache_info()
    nilpotent_submodule(second, 2)
    after = _nilpotent_submodule.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_label_and_symbols_take_part_in_equality(s8):
    relabelled = AlmostAbelianSpec(s8.n, s8.blocks, "another lattice", s8.symbols)
    more_symbols = AlmostAbelianSpec(s8.n, s8.blocks, s8.lattice_label, ("b", "c"))
    assert relabelled != s8 and more_symbols != s8 and relabelled != more_symbols
    assert AlmostAbelianSpec(s8.n, s8.blocks, s8.lattice_label, s8.symbols) == s8


def test_instance_types_are_immutable(s8):
    block = s8.blocks[1]
    weight = Weight(block.re, block.im_resonant, block.im_symbolic)
    for value, field in ((weight, "re"), (block, "size"), (s8, "n"), (s8, "lattice_label")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 1


def test_block_defaults_to_no_rotation():
    block = Block("complex", 1, ScalarLC(1))
    assert block.im_resonant == 0 and block.im_symbolic == ScalarLC(0)
    assert block == Block("complex", 1, ScalarLC(1), Fraction(0), ScalarLC(0))
    assert AlmostAbelianSpec(2, (block,)) == AlmostAbelianSpec(2, (block,), "", ())
