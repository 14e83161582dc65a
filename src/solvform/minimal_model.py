"""Degreewise minimal model of the unipotent-monodromy subalgebra.

The target is the subalgebra of the fiber cohomology picked out by
:mod:`.monodromy`, viewed as a differential graded algebra with zero
differential.  Because its zero class has only the zero representative,
the realization map of the model can send every non-closed generator to
the zero form and stay a chain map.

The model is free graded-commutative on ordered generators.  Monomials
are sorted tuples of generator ids (odd generators at most once), with
reordering signs folded into rational coefficients; a polynomial is a
finite map from monomials to nonzero rationals.  That map is also the
sparse row :mod:`.linalg` eliminates, with the monomials as columns:
:meth:`MinimalModel.monomials` lists each degree in sorted tuple order,
which is the column order, so no position map is needed.  Construction
is staged by degree q:

  (b) new closed degree-q generators realize a complement of the image
      of the existing classes inside the degree-q slice of the target;
      those classes are the ones the last killing round of stage q-1
      computed, on the same generators, so they are not formed again;
      the complement basis is ordered along the kernel filtration of the
      shift N modulo that image, read from the residues of N^j modulo the
      image (N preserves it; checked), so the twist added later is strictly
      triangular on same-degree generators;
  (c) classes one degree up whose realization vanishes are killed by new
      non-closed degree-q generators whose differentials are the
      corresponding cocycles; killing is repeated until no such class
      remains, since fresh generators can create new vanishing classes.

Generator differentials only involve earlier generators and have no
linear term, and the realization induces an isomorphism onto the target
in every degree up to the bound (checked by :func:`verify_quasi_iso`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .errors import InputError, InternalInvariantViolation
from .exterior import Multivector, coordinate_vector, primitive_part
from .linalg import EchelonAccumulator, echelon_basis, map_kernel, matrix_mul
from .monodromy import _index_map, _shift_row, nilpotent_submodule
from .scalars import _join_terms
from .spectral import AlmostAbelianSpec, nilpotent_log

Mono = "tuple[int, ...]"
Poly = "dict[Mono, Fraction]"


class Generator:
    __slots__ = ("gid", "degree", "differential", "rho", "closed")

    def __init__(self, gid: int, degree: int, differential: dict, rho: Multivector, closed: bool):
        self.gid = gid
        self.degree = degree
        self.differential = differential  # Poly over earlier generators; empty when closed
        self.rho = rho  # realization; zero multivector for non-closed generators
        self.closed = closed

    @property
    def name(self) -> str:
        return f"g{self.gid + 1}"


class ClassRep:
    """A cohomology class of the model: cocycle polynomial plus realization."""

    __slots__ = ("poly", "rho")

    def __init__(self, poly: dict, rho: Multivector):
        self.poly = poly
        self.rho = rho


class MinimalModel:
    """Free graded-commutative algebra on ordered generators with differential."""

    def __init__(self, spec: AlmostAbelianSpec, degree_bound: int):
        self.spec = spec
        self.degree_bound = degree_bound
        self.gens: list[Generator] = []
        self._mono_cache: dict = {}  # (degree, gids) -> sorted monomials
        self._d_cache: dict = {}  # monomial -> its differential
        self._rho_cache: dict = {}  # monomial -> its realization

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
        # only monomials of at least the new degree can contain the new generator
        self._mono_cache = {key: v for key, v in self._mono_cache.items() if key[0] < degree}
        return gen

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
        cached = self._mono_cache.get(key)
        if cached is not None:
            return cached
        by_degree: dict[int, list[int]] = {}
        for gid in range(len(self.gens)) if gids is None else gids:
            by_degree.setdefault(self.gens[gid].degree, []).append(gid)
        groups = sorted(by_degree.items())
        found = []

        # one level per distinct generator degree, ascending, so the depth
        # stays at most k however many generators there are
        def rec(idx: int, remaining: int, acc: tuple):
            if remaining == 0:
                found.append(tuple(sorted(acc)))
                return
            if idx == len(groups) or groups[idx][0] > remaining:
                return
            deg, members = groups[idx]
            rec(idx + 1, remaining, acc)
            pick = combinations if deg % 2 else combinations_with_replacement
            for count in range(1, remaining // deg + 1):
                for chosen in pick(members, count):
                    rec(idx + 1, remaining - count * deg, acc + chosen)

        rec(0, k, ())
        found.sort()
        self._mono_cache[key] = found
        return found

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
    def p_combination(coeffs: dict, polys: list) -> dict:
        """``sum(c_i * polys[i])`` over the sparse coefficient row ``coeffs``."""
        out: dict = {}
        for i, c in sorted(coeffs.items()):
            for m, x in polys[i].items():
                total = out.get(m, 0) + c * x
                if total:
                    out[m] = total
                else:
                    out.pop(m, None)
        return out

    def p_mul(self, p, q):
        """Product of two polynomials.  Nothing in the package calls it, but
        ``bench/layertrace.py`` wraps it by name and tests use it as the reference."""
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

    def d_mono(self, mono):
        """Differential of one monomial, memoized.

        Generator differentials are fixed when a generator is created, so
        an entry never goes stale.  Callers must not mutate the result.
        """
        out = self._d_cache.get(mono)
        if out is None:
            out = self._d_cache[mono] = self.d_poly({mono: Fraction(1)})
        return out

    def d_poly(self, p):
        """Differential: :meth:`_leibniz` of the generator differentials, with Koszul signs."""
        return self._leibniz(p, lambda gid: self.gens[gid].differential, graded=True)

    def derivation_poly(self, values: dict, p):
        """Degree-0 derivation: :meth:`_leibniz` of ``values`` (absent gids map to 0), no signs."""
        return self._leibniz(p, values.get, graded=False)

    def _leibniz(self, p, value_of, graded: bool):
        """Sum over each factor of each monomial of prefix * value_of(gid) * suffix.

        With ``graded`` a term takes the Koszul sign of its prefix degree.
        """
        out: dict = {}
        for mono, coeff in p.items():
            prefix_degree = 0
            for pos, gid in enumerate(mono):
                val = value_of(gid)
                if val:
                    prefix, suffix = mono[:pos], mono[pos + 1 :]
                    scale = -coeff if graded and prefix_degree % 2 else coeff
                    for vm, vc in val.items():
                        left = self.mono_mul(prefix, vm)
                        if left is None:
                            continue
                        right = self.mono_mul(left[1], suffix)
                        if right is None:
                            continue
                        m = right[1]
                        total = out.get(m, 0) + left[0] * right[0] * scale * vc
                        if total:
                            out[m] = total
                        else:
                            # test-built polynomials may carry zero coefficients
                            out.pop(m, None)
                prefix_degree += self.gens[gid].degree
        return out

    def rho_poly(self, p) -> Multivector:
        """Realization: algebra map sending each generator to its stored value."""
        total_degree = self.mono_degree(next(iter(p))) if p else 0
        terms = []
        for mono, coeff in p.items():
            terms.extend((key, c * coeff) for key, c in self._rho_mono(mono).terms.items())
        return Multivector(self.spec.n, total_degree, terms)

    def _rho_mono(self, mono) -> Multivector:
        """Realization of one monomial, memoized like :meth:`d_mono`."""
        out = self._rho_cache.get(mono)
        if out is None:
            if mono:
                out = self._rho_mono(mono[:-1]).wedge(self.gens[mono[-1]].rho)
            else:
                out = Multivector.unit(self.spec.n)
            self._rho_cache[mono] = out
        return out

    def poly_str(self, p) -> str:
        texts = []
        for mono in sorted(p):
            coeff = p[mono]
            body = mono_name(self, mono)
            if coeff == 1 and body != "1":
                texts.append(body)
            elif coeff == -1 and body != "1":
                texts.append(f"-{body}")
            elif body == "1":
                texts.append(str(coeff))
            else:
                texts.append(f"{coeff}*{body}")
        return _join_terms(texts)

    # ----- cohomology of the model -------------------------------------------------

    def cocycles(self, k: int, gids=None) -> list[dict]:
        """Basis of the degree-k cocycles over the given generator ids, as polynomials."""
        domain = self.monomials(k, gids)
        # polynomials are the rows; kernel vectors are keyed by domain position
        kernel = map_kernel([self.d_mono(m) for m in domain])
        return [{domain[j]: c for j, c in vec.items()} for vec in kernel]

    def class_reps(self, k: int, gids=None) -> list[ClassRep]:
        """Echelonized degree-k classes over the given generator ids, with realizations."""
        # gids=None keys the monomial cache by degree alone, so lists survive new generators
        image = EchelonAccumulator()
        for m in self.monomials(k - 1, gids):
            image.add(self.d_mono(m))
        classes = EchelonAccumulator()
        for poly in self.cocycles(k, gids):
            classes.add(image.residue(poly))
        return [ClassRep(poly, self.rho_poly(poly)) for poly in classes.rows]


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

    Ordered along the kernel filtration of the shift N taken modulo the
    realized image, so that N maps each vector into the span of its
    predecessors plus the image.  N preserves that image, the degree-q part
    of the subalgebra generated by the realizations of the lower-degree
    closed generators, which earlier stages made N-stable; this is checked on
    the image rows.  So x lies in the j-th kernel exactly when N^j(x) lies in
    the image: the filtration is read from residues of N^j modulo the image,
    with no matrix of N on the quotient.
    """
    spec = model.spec
    image_acc = EchelonAccumulator()
    for rep in image_reps:
        image_acc.add(coordinate_vector(rep.rho))
    span = EchelonAccumulator.from_reduced(image_acc.rows)  # image plus complement
    complement = [
        vec for vec in map(coordinate_vector, nilpotent_submodule(spec, q)) if span.add(vec)
    ]

    index_map = _index_map(nilpotent_log(spec))
    if any(image_acc.residue(_shift_row(row, index_map)) for row in image_acc.rows):
        raise InternalInvariantViolation("realized image in degree %d is not shift-stable" % q)
    power = [_shift_row(vec, index_map) for vec in complement]
    if any(span.residue(row) for row in power):
        raise InternalInvariantViolation(
            "shift action left the invariant subspace in degree %d" % q
        )
    m = len(complement)
    chosen = EchelonAccumulator()
    order = []
    for _ in range(m):
        if chosen.rank == m:
            break
        for x in echelon_basis(map_kernel([image_acc.residue(row) for row in power])):
            if chosen.add(x):
                order.append(x)
        power = [_shift_row(row, index_map) for row in power]
    if chosen.rank != m:
        raise InternalInvariantViolation("shift action is not nilpotent on the complement")

    return [
        primitive_part(Multivector(spec.n, q, combo))
        for combo in matrix_mul(order, complement)
    ]


def build_minimal_model(spec: AlmostAbelianSpec, d_max: int) -> MinimalModel:
    """Staged construction up to the degree bound; see the module docstring."""
    if d_max < 1:
        raise InputError("model degree bound must be at least 1")
    model = MinimalModel(spec, d_max)
    reps: list[ClassRep] = []  # class_reps(q) of the generators so far
    for q in range(1, d_max + 1):
        for vec in _flag_ordered_complement(model, q, reps):
            model.add_generator(degree=q, rho=vec, closed=True)
        for _round in range(50):
            reps = model.class_reps(q + 1)
            kern = map_kernel([coordinate_vector(rep.rho) for rep in reps])
            if not kern:
                break
            polys = [rep.poly for rep in reps]
            for coeffs in kern:
                model.add_generator(
                    degree=q, differential=model.p_combination(coeffs, polys), closed=False
                )
        else:
            raise InternalInvariantViolation(
                f"class killing did not stabilize at degree {q}"
            )
    return model


def model_cohomology(model: MinimalModel, k: int) -> list[ClassRep]:
    """Degree-k classes of the finished model (error above the bound)."""
    if k > model.degree_bound:
        raise InputError(f"degree {k} exceeds the model bound {model.degree_bound}")
    return model.class_reps(k)


def verify_quasi_iso(model: MinimalModel) -> dict[int, dict]:
    """Per degree up to the bound: is the realization bijective onto the target?"""
    out = {}
    for k in range(1, model.degree_bound + 1):
        reps = model.class_reps(k)
        u_basis = nilpotent_submodule(model.spec, k)
        acc = EchelonAccumulator()
        image_rank = sum(acc.add(coordinate_vector(rep.rho)) for rep in reps)
        injective = image_rank == len(reps)
        surjective = image_rank == len(u_basis) and not any(
            acc.add(coordinate_vector(u)) for u in u_basis
        )
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
