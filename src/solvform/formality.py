"""Twisted total model over the circle base and the formality criterion.

The total model adds one closed degree-1 generator ``A`` to the minimal
model of the invariant subalgebra and twists the differential:

    D(x) = d(x) + A * theta(x),

where ``theta`` is a degree-0 derivation encoding the logarithm of the
unipotent monodromy.  On a closed generator, ``theta`` is the unique
cocycle combination of earlier classes realizing the shift image of the
generator's realization; on a non-closed generator ``z`` with dz = w it
is a solution of d(theta z) = theta(w), taken with free coefficients
zero, which keeps D*D = 0.  Degrees where that solution involved a
choice are flagged, since different choices give isomorphic but not
identical models.

The total space is formal through degree k exactly when ``theta``
vanishes on every closed element of the base model in degrees <= k;
a violating element is reported as a witness.  Verdicts are always
qualified by the checked degree and the model bound: nothing is claimed
beyond finitely many degrees.
"""

from __future__ import annotations

from .errors import InputError, InternalInvariantViolation
from .exterior import coordinate_vector
from .linalg import solve_combination
from .minimal_model import MinimalModel, build_minimal_model
from .monodromy import _index_map, _shift_row
from .spectral import AlmostAbelianSpec, nilpotent_log


class TwistedModel:
    __slots__ = ("model", "theta", "ambiguity_degrees")

    def __init__(self, model: MinimalModel, theta: dict, ambiguity_degrees: list[int]):
        self.model = model
        self.theta = theta  # gid -> Poly over earlier generators
        self.ambiguity_degrees = ambiguity_degrees

    def theta_poly(self, p) -> dict:
        """Derivation extension of the twist to polynomials."""
        return self.model.derivation_poly(self.theta, p)


def build_twisted_model(spec: AlmostAbelianSpec, model: MinimalModel) -> TwistedModel:
    """Construct the twist generator by generator, in creation order."""
    index_map = _index_map(nilpotent_log(spec))
    theta: dict = {}
    ambiguity: set[int] = set()
    tm = TwistedModel(model, theta, [])
    for gen in model.gens:
        if gen.closed:
            theta[gen.gid] = _theta_closed(model, index_map, gen)
        else:
            value, chose = _theta_nonclosed(model, tm, gen)
            theta[gen.gid] = value
            if chose:
                ambiguity.add(gen.degree)
    tm.ambiguity_degrees = sorted(ambiguity)
    _check_square_zero(tm)
    return tm


def _theta_closed(model: MinimalModel, index_map: dict, gen):
    """Realize the shift image of a closed generator by earlier classes.

    Solved against the classes of the generators created before it: the
    lower-degree generators and the earlier same-degree closed ones.  The
    flag ordering of same-degree generators guarantees a solution there,
    and the realization is injective on those classes, so it is unique.
    """
    target = _shift_row(coordinate_vector(gen.rho), index_map)
    if not target:
        return {}
    reps = model.class_reps(gen.degree, range(gen.gid))
    rows = [coordinate_vector(rep.rho) for rep in reps]
    coeffs, _ = solve_combination(rows, target)
    if coeffs is None:
        raise InternalInvariantViolation(
            f"shift image of {gen.name} is not realized by earlier classes"
        )
    return model.p_combination(coeffs, [rep.poly for rep in reps])


def _theta_nonclosed(model: MinimalModel, tm: TwistedModel, gen):
    """Solve d(theta z) = theta(dz) with free coefficients zero.

    Returns (polynomial, whether the solution involved a choice).
    Preference is given to monomials in generators created before z; the
    unrestricted space is only used when that subspace has no solution.
    """
    rhs = tm.theta_poly(gen.differential)
    if not rhs:
        return {}, False
    q = gen.degree
    rhs_gids = {gid for mono in rhs for gid in mono}
    for restricted, gids in ((True, range(gen.gid)), (False, None)):
        domain = model.monomials(q, gids)
        if not domain:
            continue
        if gids is not None and not rhs_gids.issubset(gids):
            continue  # rhs mentions generators outside this restriction
        coeffs, free = solve_combination([model.d_mono(m) for m in domain], rhs)
        if coeffs is None:
            continue
        # a choice was involved when the preimage is not unique, or when
        # only the unrestricted space (same-stage generators) solved it
        chose = (not restricted) or free > 0
        return {domain[j]: c for j, c in coeffs.items()}, chose
    raise InternalInvariantViolation(
        f"twist of non-closed generator {gen.name} has no solution: "
        "the twisted differential would not square to zero"
    )


def _check_square_zero(tm: TwistedModel):
    model = tm.model
    for gen in model.gens:
        lhs = tm.theta_poly(gen.differential)
        rhs = model.d_poly(tm.theta.get(gen.gid, {}))
        if lhs != rhs:  # exact: model polynomials never store a zero
            raise InternalInvariantViolation(
                f"twist does not commute with the differential on {gen.name}"
            )


class DegreeStatus:
    __slots__ = ("degree", "passed", "witness", "witness_twist")

    def __init__(self, degree: int, passed: bool, witness=None, witness_twist=None):
        self.degree = degree
        self.passed = passed
        self.witness = witness  # closed polynomial with nonzero twist, or None
        self.witness_twist = witness_twist


class FormalityVerdict:
    __slots__ = ("max_checked_degree", "model_bound", "statuses")

    def __init__(self, max_checked_degree: int, model_bound: int):
        self.max_checked_degree = max_checked_degree
        self.model_bound = model_bound
        self.statuses: list[DegreeStatus] = []

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.statuses)

    @property
    def first_fail_degree(self):
        for s in self.statuses:
            if not s.passed:
                return s.degree
        return None

    def summary(self) -> str:
        if self.passed:
            return (
                f"formal through degree {self.max_checked_degree} "
                f"(model bound {self.model_bound})"
            )
        return (
            f"not {self.first_fail_degree}-formal "
            f"(checked through degree {self.max_checked_degree}, model bound {self.model_bound})"
        )


def formality_from_twisted(tm: TwistedModel, k: int) -> FormalityVerdict:
    """Check the kernel criterion on every degree up to k."""
    model = tm.model
    if k > model.degree_bound:
        raise InputError(f"formality degree {k} exceeds model bound {model.degree_bound}")
    verdict = FormalityVerdict(k, model.degree_bound)
    for i in range(1, k + 1):
        status = DegreeStatus(i, True)
        for poly in model.cocycles(i):
            twist = tm.theta_poly(poly)
            if twist:
                status = DegreeStatus(i, False, poly, twist)
                break
        verdict.statuses.append(status)
    return verdict


def k_formality(spec: AlmostAbelianSpec, k: int, d_max=None) -> FormalityVerdict:
    """Build the model and twist up to ``max(k, d_max)`` and run the criterion."""
    bound = max(k, d_max or k)
    model = build_minimal_model(spec, bound)
    tm = build_twisted_model(spec, model)
    return formality_from_twisted(tm, k)


def total_model_dump(tm: TwistedModel) -> str:
    """Stable text listing of the twisted model: D on A and every generator."""
    model = tm.model
    lines = [f"total model with twist generator A, degree bound {model.degree_bound}"]
    lines.append("D(A) = 0, tau(A) = a%d" % (model.spec.n + 1))
    for gen in model.gens:
        d_part = model.poly_str(gen.differential) if gen.differential else ""
        twist = tm.theta.get(gen.gid, {})
        t_part = ""
        if twist:
            t_text = model.poly_str(twist)
            t_part = f"({t_text})*A" if len(twist) > 1 or abs(next(iter(twist.values()))) != 1 else f"{t_text}*A"
        pieces = [p for p in (d_part, t_part) if p]
        rhs = " + ".join(pieces) if pieces else "0"
        lines.append(f"D({gen.name}) = {rhs}, tau({gen.name}) = {gen.rho}")
    return "\n".join(lines)
