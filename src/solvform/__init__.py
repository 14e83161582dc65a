"""Exact-arithmetic analysis of almost abelian solvmanifold presentations.

Given the block normal form of the twist derivation and its lattice
resonance data, the package computes the submodule of the fiber
cohomology with unipotent monodromy, the cohomology of the completely
solvable modification, a Sullivan minimal model with its twisted total
model, a degree-bounded formality verdict, and invariant symplectic
forms with exact certificates.  All arithmetic is over the rationals
extended by declared transcendental symbols; nothing is ever rounded.
"""

from .cohomology import CEElement, betti_numbers, ce_differential, cohomology
from .errors import (
    HypothesisError,
    InputError,
    InternalInvariantViolation,
    OracleUnavailable,
    SchemaError,
)
from .exterior import (
    LinearEndo,
    Multivector,
    derivation_apply,
    top_coefficient,
    wedge_power,
)
from .formality import (
    FormalityVerdict,
    TwistedModel,
    build_twisted_model,
    formality_from_twisted,
    total_model_dump,
)
from .minimal_model import (
    MinimalModel,
    build_minimal_model,
    serialize_model,
    verify_quasi_iso,
)
from .monodromy import nilpotent_submodule, resonance_test
from .report import Analysis, build_report, dumps_canonical, verify_report
from .scalars import ScalarLC, parse_scalar
from .spectral import (
    AlmostAbelianSpec,
    Block,
    Weight,
    emit_spec,
    generator_weights,
    load_spec,
    modified_matrix,
    nilpotent_log,
    parse_spec,
)
from .symplectic import (
    CoSymplecticPair,
    SymplecticWitness,
    closed_two_classes,
    find_symplectic,
    verify_symplectic,
)

__version__ = "0.1.0"


def fixture_path(name: str):
    """Path to a bundled instance document, e.g. ``fixture_path("s6")``."""
    # imported here: outside this helper nothing needs it, and where ``site``
    # has not loaded it already it pulls in pathlib, zipfile and tempfile
    from importlib import resources

    if not name.endswith(".json"):
        name += ".json"
    return resources.files(__package__) / "fixtures" / name
