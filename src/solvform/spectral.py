"""Problem instances: block normal form of the twist action plus resonance data.

An instance describes a semidirect product of the real line with an
n-dimensional abelian algebra.  The acting derivation is given in real
block normal form: real Jordan blocks (eigenvalue ``re``, shift above
the diagonal) and complex blocks (real normal form of ``re + i*beta``
repeated ``size`` times, occupying two real coordinates per cell).

Imaginary parts are recorded in units of one full turn of the lattice
generator, split into a rational part ``im_resonant`` and a symbolic
part ``im_symbolic``; with that normalization the monodromy fixes a
generator exactly when ``re`` and ``im_symbolic`` vanish and
``im_resonant`` is an integer, so the fixed-point test is integer
arithmetic.

Shift convention: when the twist maps the (j+1)-th block coordinate to
the j-th, the induced map on the dual basis sends ``a_j`` to ``a_(j+1)``
and the last dual coordinate of the block to zero.  The index map of
:func:`_shift_index_map` is the one description of that shift: the shift
slices, the flag order of the model build and the twist apply it to index
tuples, and :func:`nilpotent_log`, the shift as a ``LinearEndo`` for the
oracle and the closedness certificate, is built from it.  Likewise
:func:`_slot_table` is the one description of a complexified slot: its
conjugate, its real-form terms and its sl2 weight; the slot weights live
only in :mod:`.monodromy`, as integer coordinate tuples.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import lru_cache

from .errors import HypothesisError, SchemaError
from .exterior import LinearEndo, Multivector
from .scalars import _SYMBOL_RE, ScalarLC, _canonical, parse_rational, parse_scalar

_TOP_FIELDS = {"n", "symbols", "lattice_label", "blocks"}
_BLOCK_FIELDS = {"kind", "size", "re", "im_resonant", "im_symbolic"}

# Bound of each per-(spec, degree) memo in the layers above: enough for
# every degree of a few dozen specs, so a process that loops over many
# specs keeps a fixed amount of cached data.
SLICE_CACHE_SIZE = 256


# The instance types are memo and dict keys compared field by field, so each
# is a ``namedtuple`` subclass: eq and hash over all fields, no assignment.


class Block(
    namedtuple(
        "Block", "kind size re im_resonant im_symbolic", defaults=(0, ScalarLC(0))
    )
):
    """One block of the normal form; ``kind`` is "real" or "complex".  A parsed
    ``im_resonant`` follows the one coefficient rule, so hashing an integral
    one hashes an ``int``, not a ``Fraction``."""

    __slots__ = ()

    @property
    def real_dim(self) -> int:
        return self.size if self.kind == "real" else 2 * self.size


class AlmostAbelianSpec(
    namedtuple("AlmostAbelianSpec", "n blocks lattice_label symbols", defaults=("", ()))
):
    """An instance: ``n``, a tuple of ``Block``, a label and the symbol names."""

    __slots__ = ()

    def block_starts(self) -> list[int]:
        """First coordinate index (1-based) of each block."""
        starts, at = [], 1
        for block in self.blocks:
            starts.append(at)
            at += block.real_dim
        return starts


def parse_spec(text: str) -> AlmostAbelianSpec:
    """Parse and validate a JSON instance document.  A number with a fraction or
    an exponent, ``NaN`` or ``Infinity`` would arrive rounded, so it is refused."""
    try:
        doc = json.loads(text, parse_float=_refuse_number, parse_constant=_refuse_number)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise SchemaError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("input document must be a JSON object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise SchemaError(f"unknown field(s) {sorted(unknown)} in input document")

    n = doc.get("n")
    if type(n) is not int or n < 1:
        raise SchemaError("field 'n' must be a positive integer")
    symbols = doc.get("symbols", [])
    if not isinstance(symbols, list) or not all(isinstance(s, str) for s in symbols):
        raise SchemaError("field 'symbols' must be a list of names")
    for name in symbols:
        if not _SYMBOL_RE.match(name):
            raise SchemaError(
                f"field 'symbols' has invalid name {name!r}: "
                "a name is a letter or '_' followed by letters, digits or '_'"
            )
    if len(set(symbols)) != len(symbols):
        raise SchemaError("field 'symbols' contains duplicates")
    lattice_label = doc.get("lattice_label", "")
    if not isinstance(lattice_label, str):
        raise SchemaError("field 'lattice_label' must be a string")
    raw_blocks = doc.get("blocks")
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise SchemaError("field 'blocks' must be a nonempty list")

    blocks = []
    for pos, raw in enumerate(raw_blocks):
        where = f"blocks[{pos}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{where} must be an object")
        unknown = set(raw) - _BLOCK_FIELDS
        if unknown:
            raise SchemaError(f"unknown field(s) {sorted(unknown)} in {where}")
        kind = raw.get("kind")
        if kind not in ("real", "complex"):
            raise SchemaError(f"{where}.kind must be 'real' or 'complex'")
        size = raw.get("size")
        if type(size) is not int or size < 1:
            raise SchemaError(f"{where}.size must be a positive integer")
        values = []
        for field, rational in (("re", False), ("im_resonant", True), ("im_symbolic", False)):
            value = raw.get(field, "0")
            if type(value) not in (str, int):
                raise SchemaError(f"{where}.{field} must be a string or an integer")
            try:
                values.append(_canonical(parse_rational(value)) if rational else parse_scalar(value, symbols))
            except ValueError as exc:
                raise SchemaError(f"{where}.{field}: {exc}") from exc
        re, im_resonant, im_symbolic = values
        if im_symbolic.const != 0:
            raise SchemaError(f"{where}.im_symbolic must have zero rational part")
        if kind == "real" and (im_resonant != 0 or not im_symbolic.is_zero()):
            raise SchemaError(f"{where}: a real block cannot carry imaginary parts")
        blocks.append(Block(kind, size, re, im_resonant, im_symbolic))

    covered = sum(b.real_dim for b in blocks)
    if covered != n:
        raise SchemaError(f"blocks cover dimension {covered} but n = {n}")
    return AlmostAbelianSpec(n, tuple(blocks), lattice_label, tuple(symbols))


def _refuse_number(literal: str):
    """``json.loads`` hook for a non-integer number or a constant such as ``NaN``."""
    raise SchemaError(
        f"JSON number {literal} is not exact: numbers must be integers, "
        'and a rational is written as a string, e.g. "1/10"'
    )


def load_spec(path) -> AlmostAbelianSpec:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return parse_spec(handle.read())
        except UnicodeDecodeError as exc:
            raise SchemaError(f"input is not UTF-8 text: {exc}") from exc


def spec_document(spec: AlmostAbelianSpec) -> dict:
    """The input document of ``spec`` with every field written out, as a report echoes it."""
    return {
        "n": spec.n,
        "symbols": list(spec.symbols),
        "lattice_label": spec.lattice_label,
        "blocks": [
            {
                "kind": b.kind,
                "size": b.size,
                "re": str(b.re),
                "im_resonant": str(b.im_resonant),
                "im_symbolic": str(b.im_symbolic),
            }
            for b in spec.blocks
        ],
    }


def emit_spec(spec: AlmostAbelianSpec) -> str:
    """Canonical JSON form; ``parse_spec(emit_spec(s)) == s``."""
    return json.dumps(spec_document(spec), sort_keys=True, separators=(",", ": "), indent=1)


@lru_cache(maxsize=SLICE_CACHE_SIZE)
def _slot_table(spec: AlmostAbelianSpec) -> tuple:
    """Each complexified dual generator as ``(conj, terms, sl2)``, indexed by slot
    (entry 0 unused), read off the blocks once per spec.  A real coordinate is its
    own complexification; a complex cell on coordinates (p, p+1) gives
    ``z = a_p - i*a_(p+1)`` in slot p and its conjugate in slot p+1.  ``conj`` is
    the conjugate's slot, ``terms`` writes the slot as ``sum(i**e * a_index)`` over
    ``(index, e)``, and ``sl2`` is ``2j - (size - 1)`` at cell j of its block."""
    table: list = [None]
    for block, start in zip(spec.blocks, spec.block_starts()):
        for j in range(block.size):
            sl2 = 2 * j - (block.size - 1)
            if block.kind == "real":
                table.append((start + j, ((start + j, 0),), sl2))
            else:
                p = start + 2 * j
                table.append((p + 1, ((p, 0), (p + 1, 3)), sl2))
                table.append((p, ((p, 0), (p + 1, 1)), sl2))
    return tuple(table)


def real_trace(spec: AlmostAbelianSpec) -> ScalarLC:
    """Sum of the real eigenvalue parts over all n coordinates: each block
    adds ``real_dim * re``, summed into one ``ScalarLC``."""
    const, terms = 0, []
    for block in spec.blocks:
        const += block.real_dim * block.re.const
        terms += [(name, block.real_dim * c) for name, c in block.re.terms]
    return ScalarLC(const, terms)


def _block_is_modifiable(block: Block) -> bool:
    return block.kind == "real" or (block.im_symbolic.is_zero() and block.im_resonant.denominator == 1)


def modification_hypothesis_holds(spec: AlmostAbelianSpec) -> bool:
    """Every rotation block is an integer resonance with no symbolic part."""
    return all(_block_is_modifiable(b) for b in spec.blocks)


def require_modification_hypothesis(spec: AlmostAbelianSpec) -> None:
    """Raise :class:`.HypothesisError` naming the first block that fails the hypothesis."""
    for pos, block in enumerate(spec.blocks):
        if not _block_is_modifiable(block):
            raise HypothesisError(
                "modification hypothesis not satisfied: "
                f"blocks[{pos}] has non-integer or symbolic imaginary resonance"
            )


@lru_cache(maxsize=SLICE_CACHE_SIZE)
def _shift_index_map(spec: AlmostAbelianSpec) -> tuple[int, ...]:
    """The shift as a map of indices, memoized per spec: entry i is the same
    coordinate of the next cell of ``a_i``'s block, or 0 at the block's last
    cell; entry 0 is unused.  Every nonzero entry is larger than its index."""
    index_map = [0] * (spec.n + 1)
    for block, start in zip(spec.blocks, spec.block_starts()):
        step = 1 if block.kind == "real" else 2  # a complex cell has two coordinates
        for i in range(start, start + block.real_dim - step):
            index_map[i] = i + step
    return tuple(index_map)


def nilpotent_log(spec: AlmostAbelianSpec) -> LinearEndo:
    """Dual action of the nilpotent (shift) part of the twist derivation: the
    unit images of :func:`_shift_index_map`."""
    n, index_map = spec.n, _shift_index_map(spec)
    return LinearEndo(n, [Multivector.basis_one_form(n, j) if j else Multivector.zero(n, 1) for j in index_map[1:]])


def modified_matrix(spec: AlmostAbelianSpec) -> LinearEndo:
    """Dual action of the completely solvable replacement of the derivation.

    Real blocks are kept; complex blocks must be integer resonances with
    no symbolic imaginary part, and are replaced by their real scalar
    part (plus the paired shift), dropping the rotations.
    """
    require_modification_hypothesis(spec)
    n = spec.n
    shift = nilpotent_log(spec)
    images = []
    for block, start in zip(spec.blocks, spec.block_starts()):
        for i in range(start, start + block.real_dim):
            images.append(Multivector(n, 1, {(i,): block.re}) + shift.image_of(i))
    return LinearEndo(n, images)
