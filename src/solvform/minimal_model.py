"""Degreewise minimal model of the unipotent-monodromy subalgebra.

The target is the subalgebra of the fiber cohomology picked out by
:mod:`.monodromy`, viewed as a differential graded algebra with zero
differential.  Because its zero class has only the zero representative,
the realization map of the model can send every non-closed generator to
the zero form and stay a chain map.

The model is free graded-commutative on ordered generators.  Monomials
are sorted tuples of generator ids (odd generators at most once), with
reordering signs folded into rational coefficients; a polynomial is a
finite map from monomials to rationals.  Construction is staged by
degree q:

  (b) new closed degree-q generators realize a complement of the image
      of the existing classes inside the degree-q slice of the target;
      the complement basis is ordered along the kernel filtration of the
      shift action modulo that image, so the twist added later is
      strictly triangular on same-degree generators;
  (c) classes one degree up whose realization vanishes are killed by new
      non-closed degree-q generators whose differentials are the
      corresponding cocycles; killing is repeated until no such class
      remains, since fresh generators can create new vanishing classes.

Generator differentials only involve earlier generators and have no
linear term, and the realization induces an isomorphism onto the target
in every degree up to the bound (checked by :func:`verify_quasi_iso`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalInvariantViolation
from .exterior import (
    Multivector,
    coordinate_vector,
    derivation_apply,
    from_coordinates,
    monomials as ext_monomials,
    primitive_part,
)
from .linalg import (
    EchelonAccumulator,
    echelon_basis,
    map_kernel,
    matrix_mul,
    rank,
    solve_combination,
)
from .monodromy import nilpotent_submodule
from .spectral import AlmostAbelianSpec, nilpotent_log

Mono = "tuple[int, ...]"
Poly = "dict[Mono, Fraction]"


@dataclass
class Generator:
    gid: int
    degree: int
    differential: dict  # Poly over earlier generators; empty when closed
    rho: Multivector  # realization; zero multivector for non-closed generators
    closed: bool

    @property
    def name(self) -> str:
        return f"g{self.gid + 1}"


@dataclass
class ClassRep:
    """A cohomology class of the model: cocycle polynomial plus realization."""

    poly: dict
    rho: Multivector


class MinimalModel:
    """Free graded-commutative algebra on ordered generators with differential."""

    def __init__(self, spec: AlmostAbelianSpec, degree_bound: int, u_bases: dict):
        self.spec = spec
        self.degree_bound = degree_bound
        self.u_bases = u_bases
        self.gens: list[Generator] = []
        self._mono_cache: dict = {}

    # ----- generator bookkeeping -------------------------------------------------

    def add_generator(self, degree: int, differential=None, rho=None, closed=True) -> Generator:
        gen = Generator(
            gid=len(self.gens),
            degree=degree,
            differential=dict(differential or {}),
            rho=rho if rho is not None else Multivector.zero(self.spec.n, degree),
            closed=closed,
        )
        self.gens.append(gen)
        self._mono_cache.clear()
        return gen

    def degree_of(self, gid: int) -> int:
        return self.gens[gid].degree

    def _odd(self, gid: int) -> bool:
        return self.gens[gid].degree % 2 == 1

    def generator_counts(self) -> dict[int, tuple[int, int]]:
        """Per degree: (closed, non-closed) generator counts."""
        out: dict[int, list[int]] = {}
        for g in self.gens:
            entry = out.setdefault(g.degree, [0, 0])
            entry[0 if g.closed else 1] += 1
        return {d: (c, n) for d, (c, n) in sorted(out.items())}

    # ----- monomials -------------------------------------------------------------

    def mono_degree(self, mono) -> int:
        return sum(self.gens[g].degree for g in mono)

    def monomials(self, k: int, gids=None) -> list:
        """Sorted degree-k monomials over the given generator ids (default all)."""
        key = (k, tuple(gids) if gids is not None else None)
        if key in self._mono_cache:
            return self._mono_cache[key]
        pool = list(range(len(self.gens))) if gids is None else list(gids)
        found = []

        def rec(idx: int, remaining: int, acc: list):
            if remaining == 0:
                found.append(tuple(acc))
                return
            if idx == len(pool):
                return
            rec(idx + 1, remaining, acc)
            gid = pool[idx]
            deg = self.gens[gid].degree
            limit = 1 if self._odd(gid) else remaining // deg
            for mult in range(1, limit + 1):
                if mult * deg > remaining:
                    break
                rec(idx + 1, remaining - mult * deg, acc + [gid] * mult)

        rec(0, k, [])
        found.sort()
        self._mono_cache[key] = found
        return found

    def restricted_gids(self, max_degree=None, before_gid=None) -> list[int]:
        out = []
        for g in self.gens:
            if max_degree is not None and g.degree >= max_degree:
                continue
            if before_gid is not None and g.gid >= before_gid:
                continue
            out.append(g.gid)
        return out

    def mono_mul(self, u, v):
        """Merge two sorted monomials; (sign, monomial) or None when an odd id repeats."""
        sign = 1
        out = []
        i = j = 0
        odd_left = sum(1 for g in u if self._odd(g))
        while i < len(u) and j < len(v):
            gu, gv = u[i], v[j]
            if gu == gv and self._odd(gu):
                return None
            if gu <= gv:
                if self._odd(gu):
                    odd_left -= 1
                out.append(gu)
                i += 1
            else:
                if self._odd(gv) and odd_left % 2:
                    sign = -sign
                out.append(gv)
                j += 1
        out.extend(u[i:])
        out.extend(v[j:])
        return sign, tuple(out)

    # ----- polynomial arithmetic ---------------------------------------------------

    @staticmethod
    def p_add(p, q):
        out = dict(p)
        for m, c in q.items():
            total = out.get(m, Fraction(0)) + c
            if total == 0:
                out.pop(m, None)
            else:
                out[m] = total
        return out

    @staticmethod
    def p_scale(c, p):
        c = Fraction(c)
        if c == 0:
            return {}
        return {m: c * v for m, v in p.items()}

    def p_mul(self, p, q):
        out: dict = {}
        for mu, cu in p.items():
            for mv, cv in q.items():
                merged = self.mono_mul(mu, mv)
                if merged is None:
                    continue
                sign, mono = merged
                total = out.get(mono, Fraction(0)) + sign * cu * cv
                if total == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = total
        return out

    def d_poly(self, p):
        """Differential, extended from generators by the graded Leibniz rule."""
        out: dict = {}
        for mono, coeff in p.items():
            prefix_degree = 0
            for pos, gid in enumerate(mono):
                dgen = self.gens[gid].differential
                if dgen:
                    sign = -1 if prefix_degree % 2 else 1
                    term = self.p_mul({mono[:pos]: Fraction(sign * 1)}, dgen)
                    term = self.p_mul(term, {mono[pos + 1 :]: Fraction(1)})
                    out = self.p_add(out, self.p_scale(coeff, term))
                prefix_degree += self.gens[gid].degree
        return out

    def derivation_poly(self, values: dict, p):
        """Degree-0 derivation replacing each generator factor by ``values[gid]``."""
        out: dict = {}
        for mono, coeff in p.items():
            for pos, gid in enumerate(mono):
                val = values.get(gid)
                if not val:
                    continue
                term = self.p_mul({mono[:pos]: Fraction(1)}, val)
                term = self.p_mul(term, {mono[pos + 1 :]: Fraction(1)})
                out = self.p_add(out, self.p_scale(coeff, term))
        return out

    def rho_poly(self, p) -> Multivector:
        """Realization: algebra map sending each generator to its stored value."""
        total_degree = self.mono_degree(next(iter(p))) if p else 0
        out = Multivector.zero(self.spec.n, total_degree)
        for mono, coeff in p.items():
            term = Multivector.unit(self.spec.n)
            for gid in mono:
                term = term.wedge(self.gens[gid].rho)
                if term.is_zero():
                    break  # a zero partial product has too low a degree to add
            else:
                out = out + term.scaled(coeff)
        return out

    @staticmethod
    def poly_coords(p, monos: list) -> list:
        pos = {m: i for i, m in enumerate(monos)}
        out = [Fraction(0)] * len(monos)
        for m, c in p.items():
            out[pos[m]] = c
        return out

    @staticmethod
    def poly_from_coords(monos: list, vec) -> dict:
        return {m: Fraction(c) for m, c in zip(monos, vec) if c != 0}

    def poly_str(self, p) -> str:
        if not p:
            return "0"
        parts = []
        for mono in sorted(p):
            coeff = p[mono]
            body = mono_name(self, mono)
            if coeff == 1 and body != "1":
                text = body
            elif coeff == -1 and body != "1":
                text = f"-{body}"
            elif body == "1":
                text = str(coeff)
            else:
                text = f"{coeff}*{body}"
            if parts and not text.startswith("-"):
                parts.append(f"+ {text}")
            elif parts:
                parts.append(f"- {text[1:]}")
            else:
                parts.append(text)
        return " ".join(parts)

    # ----- cohomology of the model -------------------------------------------------

    def class_reps(self, k: int, max_gen_degree=None) -> list[ClassRep]:
        """Echelonized degree-k cohomology classes with their realizations."""
        gids = self.restricted_gids(max_degree=max_gen_degree)
        b_prev = self.monomials(k - 1, gids) if k >= 1 else []
        b_here = self.monomials(k, gids)
        b_next = self.monomials(k + 1, gids)
        if not b_here:
            return []
        d_rows = [self.poly_coords(self.d_poly({m: Fraction(1)}), b_next) for m in b_here]
        cocycles = map_kernel(d_rows)
        image_rows = [self.poly_coords(self.d_poly({m: Fraction(1)}), b_here) for m in b_prev]
        image = EchelonAccumulator(len(b_here))
        for row in image_rows:
            image.add(row)
        reduced = []
        for vec in cocycles:
            res = image.residue(vec)
            if any(x != 0 for x in res):
                reduced.append(res)
        reps = []
        for row in echelon_basis(reduced):
            poly = self.poly_from_coords(b_here, row)
            reps.append(ClassRep(poly, self.rho_poly(poly)))
        return reps


def mono_name(model: MinimalModel, mono) -> str:
    if not mono:
        return "1"
    parts = []
    i = 0
    while i < len(mono):
        j = i
        while j < len(mono) and mono[j] == mono[i]:
            j += 1
        name = model.gens[mono[i]].name
        parts.append(name if j - i == 1 else f"{name}^{j - i}")
        i = j
    return "*".join(parts)


# ----- staged construction ----------------------------------------------------------


def _flag_ordered_complement(model: MinimalModel, q: int, image_reps: list[ClassRep]):
    """Complement of the realized classes in the degree-q target slice.

    Ordered along the kernel filtration of the shift action taken modulo
    the realized image, so that the shift maps each vector into the span
    of its predecessors plus the image.
    """
    spec = model.spec
    u_basis = model.u_bases.get(q, [])
    if not u_basis:
        return []
    keys = ext_monomials(spec.n, q)
    image_acc = EchelonAccumulator(len(keys))
    for rep in image_reps:
        image_acc.add(coordinate_vector(rep.rho, keys))
    complement_vecs = []
    grow = EchelonAccumulator(len(keys))
    for row in image_acc.rows:
        grow.add(list(row))
    for u in u_basis:
        vec = coordinate_vector(u, keys)
        if grow.add(vec):
            complement_vecs.append(vec)
    if not complement_vecs:
        return []

    ntl = nilpotent_log(spec)
    reduced_c = [image_acc.residue(v) for v in complement_vecs]
    t_rows = []
    for vec in complement_vecs:
        image = derivation_apply(ntl, from_coordinates(spec.n, q, keys, vec))
        res = image_acc.residue(coordinate_vector(image, keys))
        coeffs = solve_combination(reduced_c, res)
        if coeffs is None:
            raise InternalInvariantViolation(
                "shift action left the invariant subspace in degree %d" % q
            )
        t_rows.append(coeffs)

    m = len(complement_vecs)
    chosen = EchelonAccumulator(m)
    order = []
    power = [[Fraction(1) if i == j else Fraction(0) for j in range(m)] for i in range(m)]
    for _ in range(m + 1):
        if chosen.rank == m:
            break
        power = matrix_mul(power, t_rows)
        for x in echelon_basis(map_kernel(power)):
            if chosen.add(x):
                order.append(x)
    if chosen.rank != m:
        raise InternalInvariantViolation("shift action is not nilpotent on the complement")

    out = []
    for x in order:
        combo = [Fraction(0)] * len(keys)
        for c, vec in zip(x, complement_vecs):
            if c != 0:
                combo = [a + c * b for a, b in zip(combo, vec)]
        out.append(primitive_part(from_coordinates(spec.n, q, keys, combo)))
    return out


def build_minimal_model(spec: AlmostAbelianSpec, d_max: int) -> MinimalModel:
    """Staged construction up to the degree bound; see the module docstring."""
    if d_max < 1:
        raise InputError("model degree bound must be at least 1")
    u_bases = {k: nilpotent_submodule(spec, k) for k in range(0, min(spec.n, d_max + 1) + 1)}
    model = MinimalModel(spec, d_max, u_bases)
    for q in range(1, d_max + 1):
        for vec in _flag_ordered_complement(model, q, model.class_reps(q)):
            model.add_generator(degree=q, rho=vec, closed=True)
        for _round in range(50):
            reps = model.class_reps(q + 1)
            if not reps:
                break
            keys = ext_monomials(spec.n, q + 1)  # empty beyond the fiber dimension
            rows = [coordinate_vector(rep.rho, keys) for rep in reps]
            kern = map_kernel(rows)
            if not kern:
                break
            for coeffs in kern:
                w: dict = {}
                for c, rep in zip(coeffs, reps):
                    if c != 0:
                        w = model.p_add(w, model.p_scale(c, rep.poly))
                model.add_generator(degree=q, differential=w, closed=False)
        else:
            raise InternalInvariantViolation(
                f"class killing did not stabilize at degree {q}"
            )
    return model


def model_cohomology(model: MinimalModel, k: int) -> list[ClassRep]:
    """Degree-k classes of the finished model (error above the bound)."""
    if k > model.degree_bound:
        raise InputError(f"degree {k} exceeds the model bound {model.degree_bound}")
    if k == 0:
        return [ClassRep({(): Fraction(1)}, Multivector.unit(model.spec.n))]
    return model.class_reps(k)


def verify_quasi_iso(model: MinimalModel) -> dict[int, dict]:
    """Per degree up to the bound: is the realization bijective onto the target?"""
    spec = model.spec
    out = {}
    for k in range(1, model.degree_bound + 1):
        reps = model.class_reps(k)
        u_basis = model.u_bases.get(k, [])
        keys = ext_monomials(spec.n, k)
        rows = [coordinate_vector(rep.rho, keys) for rep in reps] if keys else []
        u_rows = [coordinate_vector(u, keys) for u in u_basis] if keys else []
        image_rank = rank(rows)
        injective = image_rank == len(reps)
        surjective = image_rank == len(u_basis) and rank(u_rows + rows) == len(u_basis)
        out[k] = {
            "model_classes": len(reps),
            "target_dim": len(u_basis),
            "injective": injective,
            "surjective": surjective,
            "ok": injective and surjective,
        }
    return out


def serialize_model(model: MinimalModel) -> str:
    """Stable text dump of generators, differentials and realizations."""
    lines = [f"degree bound {model.degree_bound}"]
    counts = model.generator_counts()
    summary = ", ".join(
        f"degree {d}: {c} closed + {n} non-closed" for d, (c, n) in counts.items()
    )
    lines.append(f"generators: {summary if summary else 'none'}")
    for g in model.gens:
        d_text = model.poly_str(g.differential)
        rho_text = str(g.rho)
        kind = "closed" if g.closed else "non-closed"
        lines.append(
            f"{g.name}: degree {g.degree}, {kind}, d({g.name}) = {d_text}, rho({g.name}) = {rho_text}"
        )
    return "\n".join(lines)
