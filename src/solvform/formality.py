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

Each degree's two row lists, the realizations of the closed classes and
d of the monomials, are eliminated once per build, on first need.  Row j
carries a provenance column ``(inf, j)``, sorting after every monomial,
and is kept only when independent of the rows before it.  A target lies
in the span exactly when its residue holds provenance columns only; they
hold minus its least solution, the one on that greedy basis, whose part
in a prefix is the prefix's greedy basis.  In a built model the monomials
in generators before z sort before ``(z,)`` and the classes leading
before ``(g,)`` head the class list, so a test on the solution's support
replaces a solve restricted to earlier generators.

The total space is formal through degree k exactly when ``theta``
vanishes on every closed element of the base model in degrees <= k;
a violating element is reported as a witness.  Verdicts are always
qualified by the checked degree and the model bound: nothing is claimed
beyond finitely many degrees.
"""

from __future__ import annotations

from .errors import InputError, InternalInvariantViolation
from .linalg import EchelonAccumulator, matrix_mul
from .minimal_model import MinimalModel
from .monodromy import _shift_row
from .spectral import _shift_index_map

_INF = float("inf")  # (inf, j) sorts after every monomial and index tuple


class TwistedModel:
    __slots__ = ("model", "theta", "ambiguity_degrees", "_theta_cache")

    def __init__(self, model: MinimalModel, theta: dict):
        self.model = model
        self.theta = theta  # gid -> polynomial over earlier generators; absent ids map to 0
        self.ambiguity_degrees: list[int] = []  # set by the build
        self._theta_cache: dict = {(): {}}  # monomial -> its twist

    def theta_poly(self, p) -> dict:
        """The twist of a polynomial, from the twists of its monomials.

        Those are :meth:`MinimalModel.mono_image` of ``theta`` in degree 0,
        memoized here, so ``theta`` must not change on an id once a monomial
        holding it was twisted.  The build keeps that: it twists only
        differentials, which use earlier generators, whose twist is fixed.
        """
        model, value_of = self.model, lambda g: self.theta.get(g, {})
        images = {mono: model.mono_image(mono, 0, value_of, self._theta_cache) for mono in p}
        return matrix_mul([p], images)[0]


def build_twisted_model(model: MinimalModel) -> TwistedModel:
    """Construct the twist generator by generator, in creation order, checking
    D*D = 0 on each as it is made against the theta(dz) its solve used: dz
    uses earlier generators only, whose twist is already fixed."""
    index_map = _shift_index_map(model.spec)
    theta: dict = {}
    ambiguity: set[int] = set()
    tm = TwistedModel(model, theta)
    solvers: dict = {}  # (closed, degree) -> accumulator
    for gen in model.gens:
        rhs = tm.theta_poly(gen.differential)
        if gen.closed:
            value, chose = _theta_closed(model, index_map, gen, solvers), False
        else:
            value, chose = _theta_nonclosed(model, rhs, gen, solvers)
        theta[gen.gid] = value
        if chose:
            ambiguity.add(gen.degree)
        if rhs != model.d_poly(value):  # exact: no stored zeros
            raise InternalInvariantViolation(f"twist does not commute with the differential on {gen.name}")
    tm.ambiguity_degrees = sorted(ambiguity)
    return tm


def _solve(solvers: dict, key, rows, target):
    """Least solution by row number of ``target`` on the iterable ``rows``, None
    outside the span; the rows are eliminated once per ``key``."""
    if key not in solvers:
        acc = solvers[key] = EchelonAccumulator()
        for j, row in enumerate(rows):
            res = acc.residue({**row, (_INF, j): 1})
            if min(res) < (_INF,):
                acc.add(res)
    res = solvers[key].residue(target)  # nonzero, as the target is
    if min(res) < (_INF,):
        return None
    return {j: -x for (_, j), x in sorted(res.items())}


def _theta_closed(model: MinimalModel, index_map: tuple, gen, solvers: dict):
    """Realize the shift image of a closed generator by earlier classes.

    Solved against the classes of the generators created before it: the
    lower-degree generators and the earlier same-degree closed ones.  The
    flag ordering of same-degree generators guarantees a solution there,
    and the realization is injective on those classes, so it is unique.
    Those classes are the kept degree-q classes of the model that lead
    with a monomial before ``(gen,)``: the units of ``gen`` and the later
    closed generators come last, and the non-closed ones add no class.
    """
    target = _shift_row(gen.rho.terms, index_map)
    if not target:
        return {}
    reps = model.class_reps(gen.degree)
    coeffs = _solve(solvers, (True, gen.degree), (rep.rho for rep in reps), target)
    if coeffs is None or min(reps[max(coeffs)].poly) >= (gen.gid,):  # sorted by lead
        raise InternalInvariantViolation(
            f"shift image of {gen.name} is not realized by earlier classes"
        )
    return matrix_mul([coeffs], [rep.poly for rep in reps])[0]


def _theta_nonclosed(model: MinimalModel, rhs: dict, gen, solvers: dict):
    """Solve d(theta z) = ``rhs``, which is theta(dz), with free coefficients zero.

    Returns (polynomial, whether the solution involved a choice).
    Preference is given to monomials in generators created before z; the
    unrestricted space is only used when that subspace has no solution.
    """
    if not rhs:
        return {}, False
    domain = model.monomials(gen.degree)
    coeffs = _solve(solvers, (False, gen.degree), map(model.d_mono, domain), rhs)
    if coeffs is None:
        raise InternalInvariantViolation(
            f"twist of non-closed generator {gen.name} has no solution: "
            "the twisted differential would not square to zero"
        )
    # a choice was involved when only the unrestricted space (same-stage generators)
    # solved it, or when a cocycle lies in the monomials before z: the kept
    # cocycles end at the rows that depend on earlier ones, in row order
    cocycles = model.cocycles(gen.degree)
    chose = domain[max(coeffs)] >= (gen.gid,) or (bool(cocycles) and max(cocycles[0]) < (gen.gid,))
    return {domain[j]: c for j, c in coeffs.items()}, chose


class DegreeStatus:
    __slots__ = ("degree", "passed", "witness", "witness_twist")

    def __init__(self, degree: int, witness=None, witness_twist=None):
        self.degree = degree
        self.passed = witness is None
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
        return self.first_fail_degree is None

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
        status = DegreeStatus(i)
        for poly in model.cocycles(i):
            twist = tm.theta_poly(poly)
            if twist:
                status = DegreeStatus(i, poly, twist)
                break
        verdict.statuses.append(status)
    return verdict


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
