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
before ``g`` are those whose last id is below g's.  A missing degree j
is built from the kept lower ones, bottom-up: each generator ``g``, in id
order, heads the degree-(j - |g|) monomials whose first id is above g's
(or equal to it, for even ``g``), which lists degree j sorted.

Every map on polynomials is the sum of its images of monomials, each
memoized and computed once from a shorter monomial.  The differential d
and the twist theta of :mod:`.formality` are derivations of degree 1 and
0: the image of ``g*r``, with ``g`` its first factor, is
D(g) * r + (-1)^(|D| |g|) g * D(r) (:meth:`MinimalModel.mono_image`).
The realization is an algebra map: the image of ``r*g``, with ``g`` its
last factor, is rho(r) ^ rho(g).  A realization is kept as the terms of
its form, a sparse row keyed by index tuple, so realizations multiply by
merging index tuples and feed the elimination directly.  Construction is
staged by degree q:

  (b) new closed degree-q generators realize a complement of the image
      of the existing classes inside the degree-q slice of the target;
      those classes, and the echelon form of their realizations, are the
      ones the last killing round of stage q-1 computed, on the same
      generators, so they are not formed again;
      the complement basis is ordered along the kernel filtration of the
      shift N modulo that image, read from the residues of N^j modulo the
      image (N preserves it; checked), so the twist added later is strictly
      triangular on same-degree generators.  When the image fills a slice
      of unit rows (its rank is the slice size and its rows use only slice
      keys) the complement is empty and no order is formed; N preserving
      the image is then N preserving the slice, which the memoized
      :func:`.monodromy.shift_slice` certifies, and the quasi-iso check
      reads surjectivity off the same two facts;
  (c) classes one degree up whose realization vanishes are killed by new
      non-closed degree-q generators whose differentials are the
      corresponding cocycles; killing is repeated until the realizations
      are independent (their echelon rank is the class count), since
      fresh generators can create new vanishing classes.

Generator differentials only involve earlier generators and have no
linear term, and the realization induces an isomorphism onto the target
in every degree up to the bound (checked by :func:`verify_quasi_iso`).
The build stops after the first stage q >= n at which every generator is
odd and their degrees sum to at most q: no monomial lies above degree q
and the target is empty above degree n, so no later stage adds one.
Before each class computation, and before anything of that round's new
monomials is formed, the build counts the monomials one degree up from
the generator degrees, and refuses past :data:`MAX_MODEL_MONOMIALS` with
an :class:`.InputError`.

The model keeps its cohomology per degree k: the cocycle basis that
:meth:`MinimalModel.cocycles` eliminates, the accumulator of the image of
d from degree k-1, the classes :meth:`MinimalModel.class_reps` forms
from them (none when the image fills the cocycles), and the echelon form
of the classes' realizations, which :meth:`MinimalModel.class_reps` forms
with them and the killing rounds, the flag order and the quasi-iso check
read without adding a row.  The cocycles of degree k and the image of
degree k+1 read the degree-k monomials; the classes read degrees k and
k-1.  Appending a degree-p generator g keeps that state by four rules:

  * append: the image of degree p+1 stays and takes dg.  g closed, degree
    p's cocycles and classes gain the unit ``(g,)`` as a last row and its
    realization joins the realized rows (exact: d(g) = 0, no boundary meets
    g, and ``(g,)`` sorts after every older degree-p monomial); g not
    closed, they stay when dg enlarges that image, as each killed cocycle,
    an independent class, does;
  * drop by growth: any other entry drops when g may add a monomial to a
    degree it reads.  Degree j gains g times each degree-(j-p) monomial, so
    it grows when j = p or when the list of degree j-p is not empty or not
    kept.  A killing round whose generators add no monomial one degree up
    (b2b2, with no degree-1 generator) so keeps those cocycles with no work;
  * re-certify: a dropped cocycle basis is set aside, and ``cocycles``
    returns it again when every d-row the skip rule takes is independent,
    keeping that image one degree up: the rank is then the monomial count
    less the basis length, every free column of the kernel elimination
    stays free and no new one appears, so the canonical kernel basis is the
    old list.  A dependent row sends the cocycles to elimination;
  * skip: an image of degree k skips d of the last monomial of each
    degree-(k-1) cocycle, where the cocycle is 1 (a free column of its
    kernel elimination, or a closed generator's unit): that row is a
    combination of the rows before it.  ``class_reps`` forms a missing
    image from ``cocycles(k - 1)``, so every image skips those rows.

So the build forms each degree's classes once per killing round and
their realizations' echelon form once, each round adds only its new
differentials to the image, a killing round eliminates no cocycles
again unless a new monomial's row is dependent, and the quasi-iso check,
the twist and the formality criterion read the finished model's classes
and cocycles without eliminating again.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import InputError, InternalInvariantViolation
from .exterior import Multivector, coordinate_vector, merge_indices, primitive_part
from .linalg import (
    EchelonAccumulator,
    _multiply_into,
    echelon_basis,
    map_kernel,
    matrix_mul,
)
from .monodromy import _shift_row, nilpotent_submodule, shift_slice
from .scalars import _canonical, _terms_text
from .spectral import AlmostAbelianSpec, _shift_index_map

# Degree-(q+1) monomials taken on by the class computation of stage q, counted from the
# generator degrees before any is listed.  In-process builds on a 2-vCPU x86 VM: s8 to K=8
# needs 16,692 degree-9 monomials (1.5 s), to K=9 57,062 (refused here, 14 s); s10 to K=7
# 9,395 (0.75 s), s12 to K=7 18,411 (1.2 s), b2b2 to K=9 18,074 (admitted here, 63-81 s).
MAX_MODEL_MONOMIALS = 20000


class Generator:
    __slots__ = ("gid", "degree", "differential", "rho", "closed")

    def __init__(self, gid: int, degree: int, differential: dict, rho: Multivector):
        self.gid = gid
        self.degree = degree
        self.differential = differential  # polynomial over earlier generators; empty when closed
        self.rho = rho  # realization; zero multivector for non-closed generators
        self.closed = not differential

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
        self._mono_cache: dict = {0: [()]}  # degree -> sorted monomials
        self._parity: list[int] = []  # gid -> degree mod 2
        self._d_cache: dict = {(): {}}  # monomial -> its differential
        self._rho_cache: dict = {(): {(): 1}}  # monomial -> its realization row
        # kept cohomology per degree k: the cocycle basis, the image of d from
        # degree k - 1 and the classes; degree 1 of a model with no generators is 0
        self._cocycles: dict = {1: []}
        self._set_aside: dict = {}  # cocycle bases an append dropped, for cocycles() to re-certify
        self._images: dict = {1: EchelonAccumulator()}
        self._classes: dict = {1: []}
        self._realized: dict = {1: EchelonAccumulator()}  # echelon form of the classes' rho rows

    # ----- generator bookkeeping -------------------------------------------------

    def add_generator(self, degree: int, differential=None, rho=None) -> Generator:
        """Append a generator, closed exactly when its differential has no nonzero term."""
        differential = {m: _canonical(c) for m, c in (differential or {}).items() if c}
        gen = Generator(
            gid=len(self.gens),
            degree=degree,
            differential=differential,
            rho=rho if rho is not None else Multivector.zero(self.spec.n, degree),
        )
        self.gens.append(gen)
        self._parity.append(degree % 2)
        self._rho_cache[(gen.gid,)] = coordinate_vector(gen.rho)
        # only monomials of at least the new degree can contain the new generator
        monos = self._mono_cache = {k: v for k, v in self._mono_cache.items() if k < degree}
        # the kept cohomology follows the append rules of the module docstring
        dg, image = gen.differential, self._images.get(degree + 1)
        stays = not dg or (image is not None and image.add(dg))
        # degree j >= |g| grows by g times each degree-(j - |g|) monomial, which a list
        # not kept may hold; the cocycles of degree j and the image of degree j + 1 read it
        def grows(j):
            return j >= degree and monos.get(j - degree, True)
        for j in [j for j in self._cocycles if grows(j)]:
            if j > degree or not stays:
                self._set_aside[j] = self._cocycles.pop(j)
        self._images = {j: v for j, v in self._images.items() if j <= degree + 1 or not grows(j - 1)}
        for kept in (self._classes, self._realized):  # classes read their cocycles and image
            for j in [j for j in kept if j == degree + 1 or j not in self._cocycles or j not in self._images]:
                del kept[j]
        if not dg:
            unit = {(gen.gid,): 1}
            if degree in self._cocycles:
                self._cocycles[degree] = self._cocycles[degree] + [unit]
            if degree in self._classes:
                unit_class = ClassRep(unit, self.rho_poly(unit))
                self._classes[degree] = self._classes[degree] + [unit_class]
                self._realized[degree].add(unit_class.rho)
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
        """Sorted degree-k monomials over all generators, kept per degree; the
        missing degrees are built bottom-up, as the module docstring says."""
        kept = self._mono_cache  # degrees 0..len(kept) - 1
        for j in range(len(kept), k + 1):
            found = kept[j] = []
            for gen in self.gens:
                rest = j - gen.degree
                if rest == 0:
                    found.append((gen.gid,))
                elif rest > 0:
                    tails, head = kept[rest], (gen.gid,)
                    first = bisect_left(tails, (gen.gid + gen.degree % 2,))
                    found += [head + t for t in tails[first:]]
        return kept.get(k, [])

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
        """Differential of one monomial: :meth:`mono_image` of the generator
        differentials.  They are fixed when a generator is created, so an entry
        never goes stale.  Callers must not mutate the result."""
        return self.mono_image(mono, 1, lambda g: self.gens[g].differential, self._d_cache)

    def d_poly(self, p):
        """Differential of a polynomial, from the memoized monomial differentials."""
        return matrix_mul([p], {mono: self.d_mono(mono) for mono in p})[0]

    def mono_image(self, mono, degree: int, value_of, cache: dict):
        """Image of one monomial under the degree-``degree`` derivation sending
        each generator g to ``value_of(g)``, memoized in ``cache`` (which maps ()
        to {}) by the product rule D(g * r) = D(g) * r + (-1)^(|D| |g|) g * D(r)
        on the first factor ``g``."""
        out = cache.get(mono)
        if out is None:
            g, rest = mono[0], mono[1:]
            out = _multiply_into({}, value_of(g), {rest: 1}, self.mono_mul)
            head = {(g,): -1 if degree % 2 and self._parity[g] else 1}
            rest_image = self.mono_image(rest, degree, value_of, cache)
            cache[mono] = _multiply_into(out, head, rest_image, self.mono_mul)
        return out

    def rho_poly(self, p) -> dict:
        """Realization row: algebra map sending each generator to its stored value.
        A unit polynomial, one monomial with coefficient 1, returns the memoized
        row of its monomial; callers must not mutate the result, as with :meth:`d_mono`."""
        if len(p) == 1:
            ((mono, c),) = p.items()
            if c == 1:
                return self._rho_mono(mono)
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
        return _terms_text([(p[mono], mono_name(self, mono)) for mono in sorted(p)])

    # ----- cohomology of the model -------------------------------------------------

    def cocycles(self, k: int) -> list[dict]:
        """Basis of the degree-k cocycles, as polynomials; kept on the model.  A
        basis an append set aside is the basis again when :meth:`_image` certifies
        it, and that image is kept as the image of degree k + 1."""
        out = self._cocycles.get(k)
        if out is None:
            domain = self.monomials(k)
            out = self._set_aside.pop(k, None)
            image = None if out is None else self._image(domain, out)
            if image is None:
                # polynomials are the rows; kernel vectors are keyed by domain position
                kernel = map_kernel([self.d_mono(m) for m in domain])
                out = [{domain[j]: c for j, c in vec.items()} for vec in kernel]
            else:
                self._images[k + 1] = image
            self._cocycles[k] = out
        return out

    def class_reps(self, k: int) -> list[ClassRep]:
        """Echelonized degree-k classes with realizations; kept on the model."""
        out = self._classes.get(k)
        if out is None:
            if k not in self._images:
                below = self.cocycles(k - 1)  # re-certifying it keeps the image too
                if k not in self._images:
                    self._images[k] = self._image(self.monomials(k - 1), below)
            image = self._images[k]
            cocycles = self.cocycles(k)
            rows = []
            # the image lies in the cocycles, so equal dimensions leave no class
            if len(cocycles) > image.rank:
                if image.rank or any(len(p) != 1 for p in cocycles):
                    rows = echelon_basis([image.residue(p) for p in cocycles])
                else:
                    rows = cocycles  # unit rows in monomial order: already reduced echelon
            out = self._classes[k] = [ClassRep(poly, self.rho_poly(poly)) for poly in rows]
            self._realized[k] = EchelonAccumulator.of_rows([rep.rho for rep in out])
        return out

    def _image(self, monos: list, cocycles: list[dict]) -> EchelonAccumulator | None:
        """Accumulator of the d-rows of ``monos`` less the last monomial of each
        of ``cocycles``, where the cocycle is 1; each skipped row depends on the
        rows before it.  None at the first row taken that does not enlarge it,
        which happens exactly when ``cocycles`` do not span the kernel of d."""
        image = EchelonAccumulator()
        free = {max(poly) for poly in cocycles}
        for m in monos:
            if m not in free and not image.add(self.d_mono(m)):
                return None
        return image


def mono_name(model: MinimalModel, mono) -> str:
    """``g1*g2^2`` for a monomial; the unit is ``""``, which prints as its coefficient."""
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


def _flag_ordered_complement(model: MinimalModel, q: int, image_acc: EchelonAccumulator):
    """Complement of the realized classes in the degree-q target slice.

    ``image_acc`` is the echelon form of their realizations, which the
    model keeps with them; it is read, never added to.  Ordered
    along the kernel filtration of the shift N taken modulo the realized
    image, so that N maps each vector into the span of its predecessors
    plus the image.  N preserves that image, the degree-q part of the
    subalgebra generated by the realizations of the lower-degree closed
    generators, which earlier stages made N-stable; this is checked on the
    image rows.  So x lies in the j-th kernel exactly when N^j(x) lies in
    the image: the filtration is read from residues of N^j modulo the image,
    with no matrix of N on the quotient.

    When the image fills a slice of unit rows (:func:`_fills_unit_slice`)
    the complement is ``[]`` and no order is formed.  N preserving the image
    is then N preserving the slice, which :func:`.monodromy.shift_slice`
    certifies (a memo hit once the cohomology stage has run).  Multi-term
    slices, outside the modification hypothesis, take the general path.
    """
    spec = model.spec
    basis = nilpotent_submodule(spec, q)
    if _fills_unit_slice(image_acc, basis):
        # the image is the slice; shift_slice certifies that N preserves it
        shift_slice(spec, q)
        return []
    span = EchelonAccumulator.of_rows(image_acc.rows)  # image plus complement
    complement = [u.terms for u in basis if span.add(u.terms)]

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


def _fills_unit_slice(acc: EchelonAccumulator, basis: list[Multivector]) -> bool:
    """True when every row of ``basis`` is a unit row and the span in ``acc``
    is theirs, decided with no elimination: the span lies in the slice
    exactly when its rows use only slice keys, and then it is the slice
    exactly when its rank is the slice size.  Always False on a multi-term
    slice, which is decided by elimination."""
    if acc.rank != len(basis) or any(len(u.terms) != 1 for u in basis):
        return False
    keys = {key for u in basis for key in u.terms}
    return all(keys.issuperset(row) for row in acc.rows)


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
    for q in range(1, d_max + 1):
        # the classes of degree q are the ones the last killing round of stage q - 1 formed
        for vec in _flag_ordered_complement(model, q, model._realized[q]):
            model.add_generator(degree=q, rho=vec)
        # a cap, not a bound: tests/test_minimal_model.py::test_killing_rounds_per_stage
        # never sees more than 2 rounds
        for _round in range(50):
            count = _monomial_count(model, q + 1)
            if count > MAX_MODEL_MONOMIALS:
                raise InputError(
                    f"model too large: degree {q + 1} has {count} monomials, "
                    f"above the limit of {MAX_MODEL_MONOMIALS}"
                )
            reps = model.class_reps(q + 1)
            if model._realized[q + 1].rank == len(reps):
                break
            kern = map_kernel([rep.rho for rep in reps])
            for differential in matrix_mul(kern, [rep.poly for rep in reps]):
                model.add_generator(degree=q, differential=differential)
        else:
            raise InternalInvariantViolation(
                f"class killing did not stabilize at degree {q}"
            )
        # past degree n the target is empty, and with odd generators only no
        # monomial lies above the sum of their degrees: no later stage adds one
        if q >= spec.n and all(model._parity) and sum(g.degree for g in model.gens) <= q:
            break
    return model


def verify_quasi_iso(model: MinimalModel) -> dict[int, dict]:
    """Per degree up to the bound: is the realization bijective onto the target?
    Both are read off the echelon form of the class realizations kept with
    :meth:`MinimalModel.class_reps`, with no row added: injective when its rank
    is the class count, and onto a slice of its rank when
    :func:`_fills_unit_slice` holds or, on any other slice, when every slice
    row has zero residue."""
    out = {}
    for k in range(1, model.degree_bound + 1):
        reps = model.class_reps(k)
        u_basis = nilpotent_submodule(model.spec, k)
        acc = model._realized[k]
        injective = acc.rank == len(reps)
        surjective = acc.rank == len(u_basis) and (
            _fills_unit_slice(acc, u_basis)
            or not any(acc.residue(u.terms) for u in u_basis)
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
