"""Invariant symplectic forms built from a closed 2-form and a 1-form.

On a total space of even dimension 2N (fiber dimension 2N-1) the ansatz
is ``omega = F + eta ^ a``, with ``F`` a degree-2 and ``eta`` a degree-1
representative of the invariant subalgebra and ``a`` dual to the acting
line.  Then ``omega^N = N * F^(N-1) ^ eta ^ a`` -- the pure fiber term
``F^N`` dies for degree reasons -- so nondegeneracy is the nonvanishing
of the top coefficient of ``F^(N-1) ^ eta``, and closedness reduces to
the shift action annihilating ``F`` (its diagonal weight contribution is
zero on invariant representatives).

The search parameterizes ``F = sum x_i u_i`` over the kernel of the
shift action on invariant 2-forms and ``eta = sum y_j e_j`` over
invariant 1-forms, and expands the pairing ``P(x, y) = top(F^(N-1) ^
eta)`` once as an explicit polynomial.  2-forms commute, so ``F^(N-1)``
is a sum over multisets ``i1 <= ... <= i(N-1)`` of basis indices: each
product ``u_i1 ^ ... ^ u_i(N-1)`` is formed once, as a sparse row keyed
by index tuple like the basis forms' terms, and weighted by the
multinomial ``(N-1)! / prod(m_i!)`` of its multiplicities ``m``; its top
coefficient against each ``e_j`` is one coefficient of ``P``.  The degree of ``P`` in each
``x_i`` is at most N-1 and in each ``y_j`` at most 1, so by Alon's
Combinatorial Nullstellensatz (Combin. Probab. Comput. 8, 1999) a nonzero
``P`` has a nonzero point on the grid {0..N-1} per ``x_i`` and {0,1} per
``y_j``.  ``P`` identically zero therefore decides "no form of this
type"; else the coordinates are fixed one at a time in grid order, each
at the smallest value that keeps the partially substituted polynomial
nonzero.  The same bound shows this reaches the lexicographically first
nonzero grid point, with no enumeration.  A negative answer refutes only
forms of this invariant type, nothing more.  The products are counted as
each level of multisets is formed, and a level past
:data:`MAX_PAIRING_PRODUCTS` is refused with an :class:`.InputError`.

The witness's values come from that search alone: the pairing is ``P`` at
the grid point and ``omega^N`` is N times it.  :func:`verify_symplectic`
is the one route that forms wedges; it recomputes both values from the
pair on the fiber and on the total space and checks closedness, so its
certificates compare the polynomial against the wedge products.
"""

from __future__ import annotations

from math import factorial, prod

from .cohomology import CEElement, ce_differential
from .errors import InputError, InternalInvariantViolation
from .exterior import Multivector, merge_indices, top_coefficient, wedge_power
from .linalg import _multiply_into, matrix_mul
from .monodromy import nilpotent_submodule, shift_slice
from .spectral import AlmostAbelianSpec, require_modification_hypothesis

# Nonzero products of basis 2-forms in one level of the pairing expansion.  In-process
# on a 2-vCPU x86 VM: torus13's six levels hold 78, 2,145, 25,740, 135,135, 270,270 and
# 135,135 products (13.2 s for the expansion, 243 MB); torus15's fourth would hold
# 675,675 and is refused here after 1.8 s.
MAX_PAIRING_PRODUCTS = 300000


class CoSymplecticPair:
    __slots__ = ("two_form", "one_form")

    def __init__(self, two_form: Multivector, one_form: Multivector):
        self.two_form = two_form
        self.one_form = one_form


class SymplecticWitness:
    __slots__ = ("pair", "omega", "pairing", "omega_top")

    def __init__(self, pair: CoSymplecticPair, omega: Multivector, pairing, omega_top):
        self.pair = pair
        self.omega = omega  # degree-2 form on the total space
        self.pairing = pairing  # top coefficient of F^(N-1) ^ eta on the fiber
        self.omega_top = omega_top  # top coefficient of omega^N on the total space


def closed_two_classes(spec: AlmostAbelianSpec) -> list[Multivector]:
    """Invariant 2-form representatives annihilated by the shift action."""
    return shift_slice(spec, 2)[0]


def assemble_omega(pair: CoSymplecticPair) -> Multivector:
    """Total-space 2-form F + eta ^ a over n+1 coordinates, n the fiber's."""
    total = pair.two_form.n + 1
    omega = pair.two_form.extend_ambient(total)
    alpha = Multivector.basis_one_form(total, total)
    return omega + pair.one_form.extend_ambient(total).wedge(alpha)


def _half_dim(spec: AlmostAbelianSpec) -> int:
    total = spec.n + 1
    if total % 2:
        raise InputError(f"symplectic undefined: total dimension {total} is odd")
    return total // 2


def find_symplectic(spec: AlmostAbelianSpec):
    """Decide exactly whether a nondegenerate pair exists; None when none of this type does.

    The witness is the first nonzero point of the grid in lexicographic
    order.  Its values come from the search alone: ``pairing`` is the
    pairing polynomial at that point, ``omega_top`` is ``N * pairing`` by
    the expansion identity, and ``omega`` is assembled from the pair.  No
    wedge is formed here; :func:`verify_symplectic` rechecks every value
    with wedge products on the fiber and on the total space.  A spec that
    fails the modification hypothesis is refused, as
    :func:`.cohomology.cohomology` refuses it, since that recheck needs
    the modified action.
    """
    require_modification_hypothesis(spec)
    half = _half_dim(spec)
    f_basis = closed_two_classes(spec)
    e_basis = nilpotent_submodule(spec, 1)
    if not e_basis:
        return None
    poly = _pairing_polynomial(half, f_basis, e_basis)
    if not poly:
        return None
    point = []
    for size in [half] * len(f_basis) + [2] * len(e_basis):
        for value in range(size):
            rest = _substitute_first(poly, value)
            if rest:
                break
        else:
            raise InternalInvariantViolation(
                f"pairing polynomial vanishes on the whole grid line after {point}"
            )
        point.append(value)
        poly = rest
    k = len(f_basis)
    (f_row,) = matrix_mul([dict(enumerate(point[:k]))], [u.terms for u in f_basis])
    (e_row,) = matrix_mul([dict(enumerate(point[k:]))], [e.terms for e in e_basis])
    pair = CoSymplecticPair(Multivector._from_row(spec.n, 2, f_row), Multivector._from_row(spec.n, 1, e_row))
    pairing = poly[()]
    return SymplecticWitness(pair, assemble_omega(pair), pairing, half * pairing)


def _pairing_polynomial(half, f_basis, e_basis) -> dict:
    """``top(F(x)^(half-1) ^ eta(y))`` on the (2*half - 1)-dimensional fiber as
    ``{exponents of (x..., y...): coefficient}``, summed over multisets of basis 2-forms
    as the module docstring says; a multiset's product row extends the one without its last."""
    f_rows = [u.terms for u in f_basis]
    products = {(): {(): 1}}
    for level in range(1, half):
        longer = {}
        for multiset, row in products.items():
            for i in range(multiset[-1] if multiset else 0, len(f_rows)):
                product = _multiply_into({}, row, f_rows[i], merge_indices)
                if product:
                    longer[multiset + (i,)] = product
                    if len(longer) > MAX_PAIRING_PRODUCTS:
                        raise InputError(
                            f"symplectic expansion too large: level {level} of the pairing "
                            f"polynomial exceeds {MAX_PAIRING_PRODUCTS} products of basis 2-forms"
                        )
        products = longer
    top = tuple(range(1, 2 * half))
    e_rows = [e.terms for e in e_basis]
    poly = {}
    for multiset, row in products.items():
        exps = tuple(map(multiset.count, range(len(f_rows))))
        weight = factorial(half - 1) // prod(map(factorial, exps))
        for j, e in enumerate(e_rows):
            coeff = _multiply_into({}, row, e, merge_indices).get(top)
            if coeff:
                poly[exps + tuple(int(i == j) for i in range(len(e_rows)))] = weight * coeff
    return poly


def _substitute_first(poly: dict, value: int) -> dict:
    """Fix the first variable of ``poly`` at ``value``, dropping zero coefficients."""
    out: dict = {}
    for exps, coeff in poly.items():
        out[exps[1:]] = out.get(exps[1:], 0) + coeff * value ** exps[0]
    return {exps: coeff for exps, coeff in out.items() if coeff}


def verify_symplectic(spec: AlmostAbelianSpec, witness: SymplecticWitness):
    """Recheck a witness independently of how it was found.

    Certificates: closedness in the modified Lie algebra complex (via the
    full modified action, not the shift kernel used by the search), the
    fiber pairing, the top power of omega recomputed on the total space,
    and the expansion identity omega^N = N * pairing.
    """
    half = _half_dim(spec)
    pair = witness.pair
    differential = ce_differential(spec, CEElement(pair.two_form, pair.one_form))
    closed = differential.is_zero()
    f_power = wedge_power(pair.two_form, half - 1)
    pairing = top_coefficient(f_power.wedge(pair.one_form))
    omega = assemble_omega(pair)
    omega_top = top_coefficient(wedge_power(omega, half))
    fiber_top_power = f_power.wedge(pair.two_form)  # zero for degree reasons
    certificates = {
        "ce_closed": closed,
        "pairing": str(pairing),
        "omega_top": str(omega_top),
        "fiber_power_vanishes": fiber_top_power.is_zero(),
        "expansion_identity": omega_top == pairing * half,
        "omega_matches_pair": omega == witness.omega,
    }
    ok = (
        closed
        and pairing != 0
        and omega_top != 0
        and certificates["expansion_identity"]
        and certificates["omega_matches_pair"]
        and pairing == witness.pairing
        and omega_top == witness.omega_top
    )
    return ok, certificates
