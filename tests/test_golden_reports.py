"""The canonical report bytes of every bundled fixture are pinned.

Any change to the elimination, memo or report code must leave these
digests alone; a deliberate change of report content updates them in
the same commit.  The minimal model dumps (``serialize_model``) are
pinned the same way, s8 up to degree 7, so a change to the model
construction is checked past the degrees a report reaches quickly, and
so are three models no report reaches: frac3 and frac4 at K=1..4,
outside the modification hypothesis, and b2b2 at K=6.
Two larger inline specs are pinned as well: s10 (symbols, complex blocks
and a symplectic witness), nil11 (``a(...)`` monomial names for
n >= 10 and three zero-weight blocks), and b2b2c and cpx2, whose
formality fails first at degree 2 and at degree 3, so their witnesses
come from model cocycles above degree 1; nil13 is pinned through the
unipotent stage alone, and its symplectic section on its own.  The fiber
slices themselves (every unipotent basis, shift kernel and cokernel) are
pinned on the fixtures, nil7, nil322, s10, nil11 and 120 seeded random specs,
and by a second digest on six specs that realify multi-term rows (frac3,
frac4, cpx2, cpx3, cpx22 and s12).
"""

import hashlib
import json
import random

import pytest
from conftest import random_resonant_spec, random_unimodular_spec

from solvform import (
    build_minimal_model,
    build_report,
    dumps_canonical,
    fixture_path,
    load_spec,
    parse_spec,
    serialize_model,
)
from solvform.exterior import Multivector
from solvform.linalg import echelon_basis
from solvform.monodromy import nilpotent_submodule, shift_slice
from solvform.report import Analysis

GOLDEN = {
    ("heisenberg3", 1): "c70d0860003c4fe21623b3940108933ac5a7a454339b71f60ac779ae7a395122",
    ("heisenberg3", 2): "dee05ea35bb79ce35e78ccc8799e642c9138924a11a30c7b90b41a6270d94b62",
    ("heisenberg3", 3): "03e8ea45cf39e6ecd6a5552a000372b703bbcadc91ee60daacb347603afae901",
    ("heisenberg3", 4): "9b911be9fbac909ade86bf6b3ddb69cdb763c3361fcc3957f67d88ecd353f1c9",
    ("s6", 1): "433ee9aa12ea856a42e722e27d9807d1e6994087cb0c66aa792822ea89f4bdcd",
    ("s6", 2): "8514da72e6500064183a4d241ff3328cf0c16ae6e293f9fe949c5268a055aec3",
    ("s6", 3): "ae3f90b148b95f6912bf37a0acb633d54acf082a20ac65f2f123e2cc0a94add8",
    ("s6", 4): "c85a07d91fba9daeeda232cf0c7148c7d5b59348414dc3c5bf754f8e77bf7533",
    ("s8", 1): "646dbe7d86b6c230e4cd80bd370a1896dd4c9d02b20720b96b6daff3db7b48af",
    ("s8", 2): "3578a0e50fd9d70ba8760fd1ab225cccc57df9fb7205be3f2d243b8a40462c91",
    ("s8", 3): "d459a8fe0c59574a6043c0bbba5f4dc36860513d221d85e05b33856385fc00a8",
    ("s8", 4): "1f7849547f707f08528d4b4c64ebf32e7afbc809b342cbc42d860792f67aef1b",
    ("torus3", 1): "82537a29312eac158175d648d3942d09549d2c3a4e0705560b0977985cb1cd50",
    ("torus3", 2): "8cf10f5c3a651a5ff90f5fc43f2f83731062d5386dab73f74ed8e108ab0d86d9",
    ("torus3", 3): "2122d8d3048c41f4d684458610db050c48f347b3a068264c20b1bf3448053905",
    ("torus3", 4): "2776ad04b187d47c39681da8c6bca0c9f551755681437de6924d40bf85aa82cd",
    ("torus4", 1): "2a2e36384ceab85639007564722aa00a1bac51f340da168b366ae9b7f918a1f0",
    ("torus4", 2): "63d337dca0543dea9870c5e43f2faa7d551637cca377bb0c99333e3348212e54",
    ("torus4", 3): "23fd027e4f78a9cdbecaee7026938d9af6ef055d5be20f207fa744c6677f178e",
    ("torus4", 4): "ab5af5e940d108fc66b0e9841ad5fb069123ecbbd606ca752008721e39ef7cac",
}


@pytest.mark.parametrize("name, max_degree", sorted(GOLDEN))
def test_report_bytes_unchanged(name, max_degree):
    text = dumps_canonical(build_report(load_spec(fixture_path(name)), max_degree))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name, max_degree]


SPECS = {
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
    "nil11": {
        "n": 11,
        "blocks": [
            {"kind": "real", "size": 4},
            {"kind": "real", "size": 4},
            {"kind": "real", "size": 3},
        ],
    },
    "b2b2c": {
        "n": 6,
        "symbols": ["b"],
        "blocks": [
            {"kind": "real", "size": 2, "re": "b"},
            {"kind": "real", "size": 2, "re": "-b"},
            {"kind": "complex", "size": 1, "im_resonant": "1"},
        ],
    },
    "cpx2": {
        "n": 6,
        "symbols": ["b"],
        "blocks": [
            {"kind": "complex", "size": 2, "re": "b", "im_resonant": "1"},
            {"kind": "real", "size": 2, "re": "-2*b"},
        ],
    },
    "nil13": {
        "n": 13,
        "blocks": [
            {"kind": "real", "size": 5},
            {"kind": "real", "size": 4},
            {"kind": "real", "size": 4},
        ],
    },
}

SPEC_GOLDEN = {
    ("s10", 4): "999054b3022a33fb891e368b5931c5db037f30a0ab702ed179d35063fce41657",
    ("nil11", 3): "b28e2f0f730e4b17ca63d34897e52db1cde54a97cbc536b2786607522334c320",
    ("b2b2c", 4): "a6fdf74d602c1c1cb97a79c3f66cf7fe6e1ddebc049bfcf2e69daaa9ebe882ac",
    ("cpx2", 4): "04473574c91ae9b9e7d020f59227dce348a2e5ff3e86e8b09ff8fa823e8b0cf8",
}


@pytest.mark.parametrize("name, max_degree", sorted(SPEC_GOLDEN))
def test_inline_spec_report_bytes_unchanged(name, max_degree):
    text = dumps_canonical(build_report(parse_spec(json.dumps(SPECS[name])), max_degree))
    assert hashlib.sha256(text.encode()).hexdigest() == SPEC_GOLDEN[name, max_degree]


# reports far past the degrees where the model stops growing, recorded before the
# build learned to stop there; nil7 is NIL7 below
HIGH_DEGREE_GOLDEN = {
    "heisenberg3": "5897d0eef1582252cdb0201c8a06f7747bb75131412d95b688d259083a433a50",
    "nil7": "2a24eb31cb209ff887c4828e86ea264ebde77dcd9eab07b0a83bbc4b3a467a80",
    "s6": "a96210e1b588ff69f0b190e02ff24d42eb5883a7bde178da545d0e7d19f0ffdf",
    "torus3": "682709d9ed06ee516337164b1c758c5b1b821545c19696442ad00a9b8b99023c",
}


@pytest.mark.parametrize("name", sorted(HIGH_DEGREE_GOLDEN))
def test_high_degree_report_bytes_unchanged(name):
    spec = parse_spec(json.dumps(NIL7)) if name == "nil7" else load_spec(fixture_path(name))
    text = dumps_canonical(build_report(spec, 200))
    assert hashlib.sha256(text.encode()).hexdigest() == HIGH_DEGREE_GOLDEN[name]


def test_large_fiber_unipotent_bytes_unchanged():
    # the 8,192-monomial fiber of nil13 through the unipotent stage only
    # (``unipotent --format json``), a size the other pins never reach
    report = build_report(parse_spec(json.dumps(SPECS["nil13"])), 1, stages=("unipotent",))
    digest = hashlib.sha256(dumps_canonical(report).encode()).hexdigest()
    assert digest == "57754033fffcc3174d8ba47f9b04e3a59b3073827f4f29df2b6e7ca19528cd8d"


def test_large_fiber_symplectic_bytes_unchanged():
    # nil13's witness: 18 closed 2-forms and 13 invariant 1-forms, so the
    # pairing polynomial is of degree 6 in 18 variables
    section = Analysis(parse_spec(json.dumps(SPECS["nil13"])), 1).symplectic_section()
    digest = hashlib.sha256(dumps_canonical(section).encode()).hexdigest()
    assert digest == "004bfe2aea119131414d461e26fac8c107ea29b62c40e07e32ccf10d3def92f0"


MODEL_GOLDEN = {
    ("heisenberg3", 1): "975fcce997440267780ee8f6df0ea494c8775804e128aa9388e6f7ba9e147fcd",
    ("heisenberg3", 2): "acb6249d41107ab869f354113b524171bca25b9bb3c4d3504d257dc154de0348",
    ("heisenberg3", 3): "45c27cbb28cbdcfad9817c0082b4f3562bc9ba2c2670d8dd0a5586a33bbbe1db",
    ("heisenberg3", 4): "06283a1af3da96e7c07b59b79c28bbabbd2e337ccbf1cd775ce71ebd05cb5c11",
    ("s6", 1): "345ba0467cd3618cb75694eea9a5644bf8bc9c84e8c86b103ab51a323939e5ef",
    ("s6", 2): "6aef3444db53478f3f38350ee47855c5bb3a19d05d80279547da9acbb4dd19e7",
    ("s6", 3): "3b9dbbaf651f9791fa87ce187a7eeeff117747af89a178e5bb66cd5cb5ceb56c",
    ("s6", 4): "a70bbd0b7f3408155f2841353978572da55762c9ad47a0312374e3c86f9890d7",
    ("torus3", 1): "52ff6cbccd9e71ba6cb004445c54b8faa211f7f5b1e6a9e843f2bcfe4fee294e",
    ("torus3", 2): "166a8eb4491fecafd7bc50981341f3e8e2e76286f8850005c14fad9504c310fa",
    ("torus3", 3): "629c46c632bffee2d7ba3dcad92e2731663d45785cc2e0e089c2aaedcde5a279",
    ("torus3", 4): "c3365aa0f12ca9db259f2ccf2d140a418ee2328d1f660e0887dd2d3f930e7e97",
    ("torus4", 1): "3b5ed885babe03cc853384fe2196d5c5c32b992b69c199223e615c7596502794",
    ("torus4", 2): "b144496d869114f300610ffba5b42ce2eeb7165e975da46fc0728d28377ab4b3",
    ("torus4", 3): "d4dbeb9fdff1b2860e7a6fb502aeb3c37f83a581bf27b3e0787a6e51e37c0bde",
    ("torus4", 4): "50c6cdda60a308a27d34a3908638c34b5ea9d1320dc8edfa03cfbb0ccf2df85c",
    ("s8", 1): "32042a40b3ae3b33e8709978fc713d22954e6ae30b1f957ba90e66264ae37229",
    ("s8", 2): "e6da734b08c698e1f87053a64d171102fab03fba9090669f013216e740e11524",
    ("s8", 3): "d42d7a5ab67e0b7fbf8a3786bdb5e0c1e93cb97ac04ab6f70186643ccbeb976e",
    ("s8", 4): "ba7c3cf82005d10995f498fa7ee5f89a31f70b795f91a8188a3697cc786d3ec7",
    ("s8", 5): "b9deafe73045109b395dca146df839d7b98f0602aef77e8ff8f4b6d2ab9d4f7e",
    ("s8", 6): "4594b88c9612dd60b7095f051cf87ad1bc8229325babde1497671ee17e7d8950",
    ("s8", 7): "70db979800fb6cb3a6407ccba21373912b56baa88ac73febda18a10a29995209",
}


@pytest.mark.parametrize("name, max_degree", sorted(MODEL_GOLDEN))
def test_model_dump_unchanged(name, max_degree):
    text = serialize_model(build_minimal_model(load_spec(fixture_path(name)), max_degree))
    assert hashlib.sha256(text.encode()).hexdigest() == MODEL_GOLDEN[name, max_degree]


NIL7 = {"n": 7, "blocks": [{"kind": "real", "size": 7}]}
NIL322 = {
    "n": 7,
    "blocks": [{"kind": "real", "size": 3}, {"kind": "real", "size": 2}, {"kind": "real", "size": 2}],
}


def _digest_specs():
    specs = [load_spec(fixture_path(name)) for name in ("heisenberg3", "s6", "s8", "torus3", "torus4")]
    specs += [parse_spec(json.dumps(doc)) for doc in (NIL7, NIL322, SPECS["s10"], SPECS["nil11"])]
    specs += [random_resonant_spec(random.Random(seed), n_max=7) for seed in range(60)]
    specs += [random_unimodular_spec(random.Random(seed), n_max=7) for seed in range(1000, 1060)]
    return specs


def test_fiber_slices_unchanged():
    # the strings of every nilpotent_submodule basis vector and every shift_slice
    # kernel and cokernel vector in degrees 0..n, in order
    digest = hashlib.sha256()
    for spec in _digest_specs():
        for k in range(spec.n + 1):
            kernel, cokernel = shift_slice(spec, k)
            for part in (nilpotent_submodule(spec, k), kernel, cokernel):
                digest.update(("; ".join(map(str, part)) + "\n").encode())
    assert digest.hexdigest() == "42ef65d3864cde8251d900f224e0a38b9372a0c0a22f99839e5a87aece1ebf52"


# specs whose slices realify conjugate pairs into multi-term rows; in frac3 and frac4
# twelve slices keep multi-term basis rows, which no spec of the digest above has
MULTI_TERM = {
    "frac3": '{"n": 8, "blocks": [{"kind": "complex", "size": 2, "im_resonant": "1/3"},'
    ' {"kind": "complex", "size": 1, "im_resonant": "1/3"}, {"kind": "real", "size": 2}]}',
    "frac4": '{"n": 10, "blocks": [{"kind": "complex", "size": 3, "im_resonant": "1/4"},'
    ' {"kind": "complex", "size": 1, "im_resonant": "1/2"}, {"kind": "real", "size": 2}]}',
    "cpx2": json.dumps(SPECS["cpx2"]),
    "cpx3": '{"n": 9, "blocks": [{"kind": "complex", "size": 3, "im_resonant": "1"},'
    ' {"kind": "real", "size": 3}]}',
    "cpx22": '{"n": 10, "blocks": [{"kind": "complex", "size": 2, "im_resonant": "1"},'
    ' {"kind": "complex", "size": 2, "im_resonant": "2"}, {"kind": "real", "size": 2}]}',
    "s12": '{"n": 11, "symbols": ["b", "c"], "blocks": [{"kind": "real", "size": 3},'
    ' {"kind": "complex", "size": 1, "re": "b", "im_resonant": "1"},'
    ' {"kind": "complex", "size": 1, "re": "-b", "im_resonant": "1"},'
    ' {"kind": "complex", "size": 1, "re": "c", "im_resonant": "1"},'
    ' {"kind": "complex", "size": 1, "re": "-c", "im_resonant": "1"}]}',
}


def test_multi_term_fiber_slices_unchanged():
    # as above, on slices with multi-term rows
    digest = hashlib.sha256()
    multi_term = 0
    for doc in MULTI_TERM.values():
        spec = parse_spec(doc)
        for k in range(spec.n + 1):
            basis = nilpotent_submodule(spec, k)
            multi_term += any(len(u.terms) > 1 for u in basis)
            kernel, cokernel = shift_slice(spec, k)
            for part in (basis, kernel, cokernel):
                digest.update(("; ".join(map(str, part)) + "\n").encode())
    assert multi_term == 12
    assert digest.hexdigest() == "90a349160cd7458d5d475129ce153f2593e85a9153712db0e324524cd9517d8a"


# model dumps the CLI never builds: frac3 and frac4 lie outside the modification
# hypothesis, so their stages take the multi-term flag order and quasi-iso check,
# and b2b2 has no degree-1 generator, so no killing round adds a monomial one degree up
B2B2 = '{"n": 4, "symbols": ["b"], "blocks": [{"kind": "real", "size": 2, "re": "b"},' \
    ' {"kind": "real", "size": 2, "re": "-b"}]}'
INLINE_MODEL_GOLDEN = {
    ("frac3", 1): "04139e731c991281989eb6f9d1df24f5c3ed82c328bff2d9a66f9b1234b56f3d",
    ("frac3", 2): "b5110f3199c9c8f764cf4c8f9e412df8a14d6c0dd8cf3a8e2cf58ac8fc688a63",
    ("frac3", 3): "4313ccf27219166a332427ae78563f1250ca0a1bbd91fefc83d172bff447c9de",
    ("frac3", 4): "452777798dfd67dee5098611dcb6b7b16886157a66d943f9c289227eb799e3d7",
    ("frac4", 1): "647fe914b446dce1153506133af73c038f2e285ae28c2f1e81f9b4e75f36df66",
    ("frac4", 2): "37308577b8780f471156295ae83ec57ddae2d160dd1370ddcdcdab8fc96657a1",
    ("frac4", 3): "de511ae26ce7870c438488e849c011fb781d45339acb514cbf997e9ff0889e5c",
    ("frac4", 4): "f6134fe2da1b607a58e0c42deda160b01c91ebf5c93213f6981f23134bd09d1b",
    ("b2b2", 6): "08b50cea0ce9d4e6e475a2f8ea1f1d7716c8d14115504f6f42ce649838976d8a",
}


@pytest.mark.parametrize("name, max_degree", sorted(INLINE_MODEL_GOLDEN))
def test_inline_model_dump_unchanged(name, max_degree):
    doc = B2B2 if name == "b2b2" else MULTI_TERM[name]
    text = serialize_model(build_minimal_model(parse_spec(doc), max_degree))
    assert hashlib.sha256(text.encode()).hexdigest() == INLINE_MODEL_GOLDEN[name, max_degree]


def test_shift_kernels_come_out_reduced():
    # the kernel of the reversed-order elimination, mapped back onto the reduced
    # slice rows, is kept with no second elimination: it is its own echelon basis
    specs = _digest_specs() + [parse_spec(doc) for doc in MULTI_TERM.values()]
    for spec in specs:
        for k in range(spec.n + 1):
            rows = [u.terms for u in shift_slice(spec, k)[0]]
            assert rows == echelon_basis(rows)


def test_slice_vectors_match_the_public_constructor():
    # the slices build their vectors without re-checking the rows they enumerated;
    # the public constructor, which checks and normalizes, must agree term by term
    specs = _digest_specs() + [parse_spec(doc) for doc in MULTI_TERM.values()]
    for spec in specs:
        for k in range(spec.n + 1):
            for u in (*nilpotent_submodule(spec, k), *(v for part in shift_slice(spec, k) for v in part)):
                checked = Multivector(spec.n, k, u.terms)
                assert (u.n, u.degree) == (spec.n, k)
                assert list(u.terms.items()) == list(checked.terms.items())
                assert [type(c) for c in u.terms.values()] == [type(c) for c in checked.terms.values()]
