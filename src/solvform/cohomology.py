"""Lie algebra cohomology of the completely solvable modification.

The algebra is the real line acting on an abelian n-dimensional ideal,
so its Chevalley-Eilenberg complex is a mapping cone: writing a total
form as ``x + y ^ a`` with ``x``, ``y`` supported on the fiber dual
basis and ``a`` the dual of the acting line,

    d(x + y ^ a) = -A(x) ^ a,

where ``A`` is the derivation extension of the modified dual action.
Consequently ``H^k = ker(A_k) (+) coker(A_{k-1}) ^ a`` and the square of
d vanishes for structural reasons.

The degree-k slice splits by total real weight (the modified action is
real-diagonal plus a weight-preserving shift).  On a slice of nonzero
weight -- decided exactly, including symbolic weights -- the action is
invertible, so only the zero-weight slice contributes kernels or
cokernels.  Under the modification hypothesis every imaginary weight sum
is an integer with no symbolic part, so that slice is exactly the
degree-k unipotent slice of :mod:`.monodromy`; the diagonal multiplies
it by its weight, zero, so there the action is the rational shift alone
and ``H^k = ker N_k (+) coker N_{k-1} ^ a`` is read off
:func:`.monodromy.shift_slice`.  No division by a symbolic quantity ever
happens.

Sign convention: d(xi)(X, Y) = -xi([X, Y]); representatives depend on it
but dimensions do not.

The kernel and cokernel come from the per-(spec, degree) memo of
:mod:`.monodromy`, so the report, model, symplectic and verify code
share one elimination per slice; this module keeps no memo of its own.
"""

from __future__ import annotations

from .exterior import Multivector, derivation_apply
from .monodromy import shift_slice
from .spectral import AlmostAbelianSpec, modified_matrix, real_trace, require_modification_hypothesis


class CEElement:
    """Total form ``fiber + base ^ a`` of degree ``fiber.degree``."""

    __slots__ = ("fiber", "base")

    def __init__(self, fiber: Multivector, base: Multivector | None = None):
        # base has degree fiber.degree - 1; None means zero
        if base is not None and base.degree != fiber.degree - 1:
            raise ValueError("base part must have degree one below the fiber part")
        self.fiber = fiber
        self.base = base

    @property
    def degree(self) -> int:
        return self.fiber.degree

    def is_zero(self) -> bool:
        return self.fiber.is_zero() and (self.base is None or self.base.is_zero())


def ce_differential(spec: AlmostAbelianSpec, elt: CEElement) -> CEElement:
    """Differential of the mapping-cone complex; the base part always dies."""
    action = modified_matrix(spec)
    image = derivation_apply(action, elt.fiber)
    return CEElement(Multivector.zero(spec.n, elt.degree + 1), -image)


class CohomologySlice:
    __slots__ = ("degree", "betti", "kernel_reps", "coker_reps")

    def __init__(self, degree: int, kernel_reps: list, coker_reps: list):
        self.degree = degree
        self.betti = len(kernel_reps) + len(coker_reps)
        self.kernel_reps = kernel_reps
        self.coker_reps = coker_reps  # base parts; each stands for rep ^ a


def cohomology(spec: AlmostAbelianSpec, k: int) -> CohomologySlice:
    """Degree-k cohomology: kernel representatives plus cokernel representatives."""
    require_modification_hypothesis(spec)
    kernel_reps = shift_slice(spec, k)[0]
    coker_reps = shift_slice(spec, k - 1)[1]
    return CohomologySlice(k, kernel_reps, coker_reps)


def betti_numbers(spec: AlmostAbelianSpec) -> list[int]:
    """Betti numbers of the total space, degrees 0..n+1."""
    return [cohomology(spec, k).betti for k in range(spec.n + 2)]


def trace_is_zero(spec: AlmostAbelianSpec) -> bool:
    """Unimodularity indicator: the twist action must be traceless."""
    return real_trace(spec).is_zero()
