"""Degreewise minimal model of the unipotent-monodromy subalgebra.

The target is the subalgebra of the fiber cohomology picked out by
:mod:`.monodromy`, viewed as a differential graded algebra with zero
differential.  Because its zero class has only the zero representative,
the realization map of the model can send every non-closed generator to
the zero form and stay a chain map.

The model is free graded-commutative on ordered generators.  Monomials
are sorted tuples of generator ids (odd generators at most once), with
reordering signs folded into rational coefficients; a polynomial is a
finite map from monomials to nonzero rationals, stored by the one
coefficient rule of :mod:`.scalars` (an ``int`` when integral).
That map is also the sparse row :mod:`.linalg` eliminates, with the
monomials as columns: :meth:`MinimalModel.monomials` keeps one list per
degree, over all generators in sorted tuple order, which is the column
order, so no position map is needed; the monomials in the generators
before ``g`` are those whose last id is below g's.  The differential of
a monomial ``g*r``, with ``g`` its first factor, is memoized by the
product rule d(g) * r + (-1)^|g| g * d(r).
A realization is kept as the terms of its form, a sparse row keyed by
index tuple, so realizations multiply by merging index tuples and feed
the elimination directly.  Construction is staged by degree q:

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
Before each class computation the build counts the monomials one degree
up from the generator degrees, and refuses past
:data:`MAX_MODEL_MONOMIALS` with an :class:`.InputError`.

The model keeps its cohomology per degree k: the cocycle basis that
:meth:`MinimalModel.cocycles` eliminates, the accumulator of the image of
d from degree k-1, and the classes :meth:`MinimalModel.class_reps` forms
from them (none when the image fills the cocycles).  Appending a
degree-k generator g updates that state by three rules instead of
forgetting it:

  * g closed: degree k gains the unit cocycle and the unit class ``(g,)``,
    each as a last row.  Exact, because d(g) = 0, no boundary meets g,
    and ``(g,)`` sorts after every older degree-k monomial, so both
    canonical echelon forms just gain that row;
  * g not closed: degree k is unchanged exactly when dg enlarges the
    image accumulator of degree k+1, which then holds dg.  In the build
    this always holds, since each killed cocycle is an independent class;
  * every other degree that g touches drops its entries (the image of
    degree k+1 survives, since only ``(g,)`` joins degree k).

So the build forms each degree's classes once per killing round, each
round adds only its new differentials to the image, and the quasi-iso
check, the twist and the formality criterion read the finished model's
classes and cocycles without eliminating again.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from .errors import InputError, InternalInvariantViolation
from .exterior import Multivector, coordinate_vector, merge_indices, primitive_part
from .linalg import (
    EchelonAccumulator,
    _multiply_into,
    echelon_basis,
    map_kernel,
    matrix_mul,
)
from .monodromy import _shift_row, nilpotent_submodule
from .scalars import _canonical, _join_terms
from .spectral import AlmostAbelianSpec, _shift_index_map

# Degree-(q+1) monomials taken on by the class computation of stage q, counted
# from the generator degrees before any is listed.  In-process builds on a 2-vCPU
# x86 VM: s8 to K=8 needs 16,692 degree-9 monomials and takes 1.5 s, to K=9 57,062
# (refused here) and 14 s; s10 to K=7 needs 9,395 (0.75 s), s12 to K=7 18,411 (1.2 s).
MAX_MODEL_MONOMIALS = 20000

Mono = "tuple[int, ...]"
Poly = "dict[Mono, int | Fraction]"


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
    """A cohomology class of the model: cocycle polynomial plus realization row."""

    __slots__ = ("poly", "rho")

    def __init__(self, poly: dict, rho: dict):
        self.poly = poly
        self.rho = rho


class MinimalModel:
    """Free graded-commutative algebra on ordered generators with differential."""

    def __init__(self, spec: AlmostAbelianSpec, degree_bound: int):
        self.spec = spec
        self.degree_bound = degree_bound
        self.gens: list[Generator] = []
        self._mono_cache: dict = {}  # degree -> sorted monomials
        self._parity: list[int] = []  # gid -> degree mod 2
        self._d_cache: dict = {(): {}}  # monomial -> its differential
        self._rho_cache: dict = {(): {(): 1}}  # monomial -> its realization row
        # kept cohomology per degree k: the cocycle basis, the image of d from
        # degree k - 1 and the classes; degree 1 of a model with no generators is 0
        self._cocycles: dict = {1: []}
        self._images: dict = {1: EchelonAccumulator()}
        self._classes: dict = {1: []}

    # ----- generator bookkeeping -------------------------------------------------

    def add_generator(self, degree: int, differential=None, rho=None, closed=True) -> Generator:
        gen = Generator(
            gid=len(self.gens),
            degree=degree,
            differential={m: _canonical(c) for m, c in (differential or {}).items()},
            rho=rho if rho is not None else Multivector.zero(self.spec.n, degree),
            closed=closed,
        )
        self.gens.append(gen)
        self._parity.append(degree % 2)
        self._rho_cache[(gen.gid,)] = coordinate_vector(gen.rho)
        # only monomials of at least the new degree can contain the new generator
        self._mono_cache = {k: v for k, v in self._mono_cache.items() if k < degree}
        # the kept cohomology follows the three append rules of the module docstring
        dg, image = gen.differential, self._images.get(degree + 1)
        stays = not dg or (image is not None and image.add(dg))
        self._images = {j: v for j, v in self._images.items() if j <= degree + 1}
        for kept in (self._cocycles, self._classes):
            for j in [j for j in kept if j > degree or (j == degree and not stays)]:
                del kept[j]
        if not dg:
            unit = {(gen.gid,): 1}
            if degree in self._cocycles:
                self._cocycles[degree] = self._cocycles[degree] + [unit]
            if degree in self._classes:
                unit_class = ClassRep(unit, self.rho_poly(unit))
                self._classes[degree] = self._classes[degree] + [unit_class]
        return gen

    def generator_counts(self) -> dict[int, tuple[int, int]]:
        """Per degree: (closed, non-closed) generator counts."""
        out: dict[int, list[int]] = {}
        for g in self.gens:
            entry = out.setdefault(g.degree, [0, 0])
            entry[0 if g.closed else 1] += 1
        return {d: (c, n) for d, (c, n) in sorted(out.items())}

    # ----- monomials -------------------------------------------------------------

    def monomials(self, k: int) -> list:
        """Sorted degree-k monomials over all generators, kept per degree."""
        cached = self._mono_cache.get(k)
        if cached is not None:
            return cached
        by_degree: dict[int, list[int]] = {}
        for gen in self.gens:
            by_degree.setdefault(gen.degree, []).append(gen.gid)
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
        self._mono_cache[k] = found
        return found

    def mono_mul(self, u, v):
        """Merge two sorted monomials; (sign, monomial) or None when an odd id repeats."""
        odd = self._parity
        sign = 1
        out = []
        i = j = 0
        odd_left = sum(map(odd.__getitem__, u))
        while i < len(u) and j < len(v):
            gu, gv = u[i], v[j]
            if gu == gv and odd[gu]:
                return None
            if gu <= gv:
                odd_left -= odd[gu]
                out.append(gu)
                i += 1
            else:
                if odd[gv] and odd_left % 2:
                    sign = -sign
                out.append(gv)
                j += 1
        out.extend(u[i:])
        out.extend(v[j:])
        return sign, tuple(out)

    # ----- polynomial arithmetic ---------------------------------------------------

    def p_mul(self, p, q):
        """Product of two polynomials.  Nothing in the package calls it, but
        ``bench/layertrace.py`` wraps it by name and tests use it as the reference."""
        return _multiply_into({}, p, q, self.mono_mul)

    def d_mono(self, mono):
        """Differential of one monomial, memoized, by the product rule
        d(g * r) = d(g) * r + (-1)^|g| g * d(r) on its first factor ``g``.

        Generator differentials are fixed when a generator is created, so
        an entry never goes stale.  Callers must not mutate the result.
        """
        out = self._d_cache.get(mono)
        if out is None:
            g, rest = mono[0], mono[1:]
            out = _multiply_into({}, self.gens[g].differential, {rest: 1}, self.mono_mul)
            head = {(g,): -1 if self._parity[g] else 1}
            self._d_cache[mono] = _multiply_into(out, head, self.d_mono(rest), self.mono_mul)
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

    def rho_poly(self, p) -> dict:
        """Realization row: algebra map sending each generator to its stored value."""
        return matrix_mul([p], {mono: self._rho_mono(mono) for mono in p})[0]

    def _rho_mono(self, mono) -> dict:
        """Realization row of one monomial, memoized like :meth:`d_mono`; the
        entry of each generator is set by :meth:`add_generator`."""
        out = self._rho_cache.get(mono)
        if out is None:
            left, right = self._rho_mono(mono[:-1]), self._rho_cache[mono[-1:]]
            out = self._rho_cache[mono] = _multiply_into({}, left, right, merge_indices)
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

    def cocycles(self, k: int) -> list[dict]:
        """Basis of the degree-k cocycles, as polynomials; kept on the model."""
        out = self._cocycles.get(k)
        if out is None:
            domain = self.monomials(k)
            # polynomials are the rows; kernel vectors are keyed by domain position
            kernel = map_kernel([self.d_mono(m) for m in domain])
            out = self._cocycles[k] = [{domain[j]: c for j, c in vec.items()} for vec in kernel]
        return out

    def class_reps(self, k: int) -> list[ClassRep]:
        """Echelonized degree-k classes with realizations; kept on the model."""
        out = self._classes.get(k)
        if out is None:
            image = self._images.get(k)
            if image is None:
                image = self._images[k] = EchelonAccumulator()
                for m in self.monomials(k - 1):
                    image.add(self.d_mono(m))
            cocycles = self.cocycles(k)
            rows = []
            # the image lies in the cocycles, so equal dimensions leave no class
            if len(cocycles) > image.rank:
                residues = [image.residue(p) for p in cocycles] if image.rank else cocycles
                rows = echelon_basis(residues)
            out = self._classes[k] = [ClassRep(poly, self.rho_poly(poly)) for poly in rows]
        return out


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
        image_acc.add(rep.rho)
    span = EchelonAccumulator()  # image plus complement
    for row in image_acc.rows:
        span.add(row)  # zero at the other pivots, so no stored row changes
    complement = [
        vec for vec in map(coordinate_vector, nilpotent_submodule(spec, q)) if span.add(vec)
    ]

    index_map = _shift_index_map(spec)
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


def _monomial_count(model: MinimalModel, k: int) -> int:
    """The number of degree-k monomials, read off the generator degrees: the
    coefficient of t^k in the product of (1 - t^d)^-1 over the even degrees d
    and (1 + t^d) over the odd ones."""
    series = [1] + [0] * k
    for gen in model.gens:
        d = gen.degree
        # (1 + t^d) multiplies downwards, (1 - t^d)^-1 = 1 + t^d + t^2d + ... upwards
        for j in range(k, d - 1, -1) if d % 2 else range(d, k + 1):
            series[j] += series[j - d]
    return series[k]


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
            count = _monomial_count(model, q + 1)
            if count > MAX_MODEL_MONOMIALS:
                raise InputError(
                    f"model too large: degree {q + 1} has {count} monomials, "
                    f"above the limit of {MAX_MODEL_MONOMIALS}"
                )
            reps = model.class_reps(q + 1)
            kern = map_kernel([rep.rho for rep in reps])
            if not kern:
                break
            for differential in matrix_mul(kern, [rep.poly for rep in reps]):
                model.add_generator(degree=q, differential=differential, closed=False)
        else:
            raise InternalInvariantViolation(
                f"class killing did not stabilize at degree {q}"
            )
    return model


def verify_quasi_iso(model: MinimalModel) -> dict[int, dict]:
    """Per degree up to the bound: is the realization bijective onto the target?"""
    out = {}
    for k in range(1, model.degree_bound + 1):
        reps = model.class_reps(k)
        u_basis = nilpotent_submodule(model.spec, k)
        acc = EchelonAccumulator()
        image_rank = sum(acc.add(rep.rho) for rep in reps)
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
