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
eta)`` once as an explicit polynomial.  Its degree in each ``x_i`` is at
most N-1 and in each ``y_j`` at most 1, so by Alon's Combinatorial
Nullstellensatz (Combin. Probab. Comput. 8, 1999) a nonzero ``P`` has a
nonzero point on the grid {0..N-1} per ``x_i`` and {0,1} per ``y_j``.
``P`` identically zero therefore decides "no form of this type"; else
the coordinates are fixed one at a time in grid order, each at the
smallest value that keeps the partially substituted polynomial nonzero.
The same bound shows this reaches the lexicographically first nonzero
grid point, with no enumeration.  A negative answer refutes only forms
of this invariant type, nothing more.
"""

from __future__ import annotations

from fractions import Fraction

from .cohomology import CEElement, ce_differential
from .errors import InputError, InternalInvariantViolation
from .exterior import Multivector, top_coefficient, wedge_power
from .monodromy import in_submodule_span, nilpotent_submodule, shift_slice
from .spectral import AlmostAbelianSpec, require_modification_hypothesis


class CoSymplecticPair:
    __slots__ = ("two_form", "one_form")

    def __init__(self, two_form: Multivector, one_form: Multivector):
        self.two_form = two_form
        self.one_form = one_form


class SymplecticWitness:
    __slots__ = ("pair", "omega", "pairing", "omega_top")

    def __init__(
        self, pair: CoSymplecticPair, omega: Multivector, pairing: Fraction, omega_top: Fraction
    ):
        self.pair = pair
        self.omega = omega  # degree-2 form on the total space
        self.pairing = pairing  # top coefficient of F^(N-1) ^ eta on the fiber
        self.omega_top = omega_top  # top coefficient of omega^N on the total space


def closed_two_classes(spec: AlmostAbelianSpec) -> list[Multivector]:
    """Invariant 2-form representatives annihilated by the shift action."""
    return shift_slice(spec, 2)[0]


def assemble_omega(spec: AlmostAbelianSpec, pair: CoSymplecticPair) -> Multivector:
    """Total-space 2-form F + eta ^ a over n+1 coordinates."""
    total = spec.n + 1
    omega = pair.two_form.extend_ambient(total)
    alpha = Multivector.basis_one_form(total, total)
    return omega + pair.one_form.extend_ambient(total).wedge(alpha)


def _half_dim(spec: AlmostAbelianSpec) -> int:
    total = spec.n + 1
    if total % 2:
        raise InputError(f"symplectic undefined: total dimension {total} is odd")
    return total // 2


def find_symplectic(spec: AlmostAbelianSpec, candidate: CoSymplecticPair | None = None):
    """Decide exactly whether a nondegenerate pair exists; None when none of this type does.

    The witness is the first nonzero point of the grid in lexicographic
    order.  A supplied candidate is verified instead of searching.  Every
    returned witness carries exact certificates and passes
    :func:`verify_symplectic` by construction, so a spec that fails the
    modification hypothesis is refused as :func:`.cohomology.cohomology`
    refuses it.
    """
    require_modification_hypothesis(spec)
    half = _half_dim(spec)
    if candidate is not None:
        if not _pair_is_admissible(spec, candidate):
            return None
        witness = _witness_from_pair(spec, half, candidate)
        if witness is None:
            return None
        ok, _ = verify_symplectic(spec, witness)
        return witness if ok else None
    f_basis = closed_two_classes(spec)
    e_basis = nilpotent_submodule(spec, 1)
    if not e_basis:
        return None
    poly = _pairing_polynomial(spec, half, f_basis, e_basis)
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
    two_form = Multivector.zero(spec.n, 2)
    for c, u in zip(point, f_basis):
        if c:
            two_form = two_form + u.scaled(c)
    one_form = Multivector.zero(spec.n, 1)
    for c, u in zip(point[len(f_basis) :], e_basis):
        if c:
            one_form = one_form + u.scaled(c)
    witness = _witness_from_pair(spec, half, CoSymplecticPair(two_form, one_form))
    if witness is None or witness.pairing != poly[()]:
        raise InternalInvariantViolation(
            f"pairing at grid point {point} disagrees with the pairing polynomial"
        )
    return witness


def _pairing_polynomial(spec, half, f_basis, e_basis) -> dict:
    """``top(F(x)^(half-1) ^ eta(y))`` as ``{exponents of (x..., y...): coefficient}``.

    ``F^(half-1)`` is expanded by multiplying by ``sum x_i u_i`` repeatedly;
    2-forms commute, so equal monomials collect their multinomial factors.
    """
    powers = {(0,) * len(f_basis): Multivector.unit(spec.n)}
    for _ in range(half - 1):
        expanded: dict = {}
        for exps, form in powers.items():
            for i, u in enumerate(f_basis):
                term = form.wedge(u)
                if term.is_zero():
                    continue
                key = exps[:i] + (exps[i] + 1,) + exps[i + 1 :]
                prev = expanded.get(key)
                expanded[key] = term if prev is None else prev + term
        powers = {exps: form for exps, form in expanded.items() if not form.is_zero()}
    poly = {}
    for exps, form in powers.items():
        for j, e in enumerate(e_basis):
            coeff = top_coefficient(form.wedge(e))
            if coeff:
                poly[exps + tuple(int(i == j) for i in range(len(e_basis)))] = coeff
    return poly


def _substitute_first(poly: dict, value: int) -> dict:
    """Fix the first variable of ``poly`` at ``value``, dropping zero coefficients."""
    out: dict = {}
    for exps, coeff in poly.items():
        term = coeff * value ** exps[0]
        key = exps[1:]
        out[key] = out[key] + term if key in out else term
    return {exps: coeff for exps, coeff in out.items() if coeff}


def _pair_is_admissible(spec: AlmostAbelianSpec, pair: CoSymplecticPair) -> bool:
    """Membership checks for supplied candidates: closed invariant 2-form, invariant 1-form."""
    return in_submodule_span(closed_two_classes(spec), pair.two_form) and in_submodule_span(
        nilpotent_submodule(spec, 1), pair.one_form
    )


def _witness_from_pair(spec, half, pair: CoSymplecticPair):
    f_power = wedge_power(pair.two_form, half - 1)
    pairing = top_coefficient(f_power.wedge(pair.one_form))
    if not pairing:
        return None
    omega = assemble_omega(spec, pair)
    omega_top = top_coefficient(wedge_power(omega, half))
    return SymplecticWitness(pair, omega, pairing, omega_top)


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
    pairing = top_coefficient(wedge_power(pair.two_form, half - 1).wedge(pair.one_form))
    omega_top = top_coefficient(wedge_power(assemble_omega(spec, pair), half))
    fiber_top_power = wedge_power(pair.two_form, half)  # zero for degree reasons
    certificates = {
        "ce_closed": closed,
        "pairing": str(pairing),
        "omega_top": str(omega_top),
        "fiber_power_vanishes": fiber_top_power.is_zero(),
        "expansion_identity": omega_top == pairing * half,
        "omega_matches_pair": assemble_omega(spec, pair) == witness.omega,
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
