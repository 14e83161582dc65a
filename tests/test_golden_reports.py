"""The canonical report bytes of every bundled fixture are pinned.

Any change to the elimination, memo or report code must leave these
digests alone; a deliberate change of report content updates them in
the same commit.
"""

import hashlib

import pytest

from solvform import build_report, dumps_canonical, fixture_path, load_spec

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
