"""Perfectly binding commitments in the common-random-string model.

The construction is the classic PRG-based bitwise commitment: to commit
to an ``ell``-bit value under a CRS of ``ell`` blocks of ``3k`` bits, each
value bit ``b_j`` is committed as ``PRG(seed_j) XOR (b_j * crs_block_j)``.
An opening is one uniform ``ell*k``-bit string, drawn as ``rng.bits(ell*k)``
(one 64-bit word while ``ell*k <= 64``); seed j is its bits ``j*k`` up to
``(j+1)*k``.  Committed values live in ``[2n] = {1, .., 2n}``, so
``ell = ceil(log2(2n+1))``.  The kernel indexes pre-shifted per-block PRG
outputs cached per ``(expansion, k, ell)``.

Binding is statistical over the CRS (for a random block, the sets
``{PRG(s)}`` and ``{PRG(s) XOR crs_block}`` are disjoint except with
probability about ``2^-k``); hiding is only as good as the pinned toy
expansion.  This is desk-scale experiment material, not production
cryptography.

Two expansion functions are shipped:

* ``"splitmix64"`` (default) - the first ``3k`` bits of the SplitMix64
  output stream seeded with the seed zero-extended to 64 bits, output
  words concatenated little-endian.
* ``"toy"`` - three SplitMix64-style mix rounds truncated to ``k``-bit
  words, one output word per round.  This variant is small enough to
  compile into a Boolean circuit and is what the CNF pipeline uses; the
  commitment API is expansion-agnostic so both paths agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

from . import serde
from .rng import GOLDEN, MIX1, MIX2, Stream


def value_bit_length(n: int) -> int:
    """Bits needed for committed values in [2n] (plus the padding slot)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (2 * n).bit_length()


def prg_splitmix64(seed: int, k: int) -> int:
    """First 3k bits of the SplitMix64 stream seeded with ``seed``."""
    return Stream(seed).bits(3 * k)


def toy_constants(k: int) -> tuple[int, tuple[int, int, int], int, int]:
    """The toy expansion's k-bit increment, three multipliers and two shifts,
    read by :func:`prg_toy` and its circuit in :mod:`npshare.circuits`."""
    mask = (1 << k) - 1
    return GOLDEN & mask, (MIX1 & mask, MIX2 & mask, MIX1 & mask), max(1, k // 2), k // 2 + 1


def prg_toy(seed: int, k: int) -> int:
    """Circuit-friendly expansion: 3 mix rounds on k-bit words.

    Each round adds the (truncated) SplitMix64 increment, then applies
    xorshift / multiply / xorshift with the truncated finalizer
    constants (:func:`toy_constants`).  Output words are concatenated
    little-endian, word t at bit offset t*k.
    """
    mask = (1 << k) - 1
    inc, mults, s1, s2 = toy_constants(k)
    state = seed & mask
    out = 0
    for t in range(3):
        state = (state + inc) & mask
        z = state ^ (state >> s1)
        z = (z * mults[t]) & mask
        z = z ^ (z >> s2)
        out |= z << (t * k)
    return out


EXPANSIONS = {"splitmix64": prg_splitmix64, "toy": prg_toy}
TABLE_K = 12  # the largest k whose 2^k PRG outputs are tabled and searched exhaustively


@dataclass(frozen=True)
class CRS:
    """Public random string: ``ell`` blocks of ``3k`` bits each."""

    n: int
    k: int
    bits: int
    expansion: str = "splitmix64"

    def __post_init__(self):
        if self.expansion not in EXPANSIONS:
            raise ValueError(f"unknown expansion {self.expansion!r}")
        if self.bits >> self.total_bits:
            raise ValueError("CRS bits exceed declared length")

    @cached_property
    def ell(self) -> int:
        return value_bit_length(self.n)

    @cached_property
    def block_bits(self) -> int:
        return 3 * self.k

    @cached_property
    def total_bits(self) -> int:
        return self.ell * self.block_bits

    @cached_property
    def blocks(self) -> tuple[int, ...]:
        """The ``ell`` CRS blocks, low block first."""
        mask = (1 << self.block_bits) - 1
        return tuple((self.bits >> (j * self.block_bits)) & mask for j in range(self.ell))

    @cached_property
    def value_masks(self) -> tuple[int, ...]:
        """Per value v in [0, 2n], the CRS blocks at v's set bits, each at
        its block's offset.  The one statement of the commitment equation:
        ``com.bits ^ value_masks[v]`` is the PRG outputs, 3k bits per block."""
        width = self.block_bits
        return tuple(
            sum(block << (j * width) for j, block in enumerate(self.blocks) if (v >> j) & 1)
            for v in range(2 * self.n + 1))

    @cached_property
    def prg_table(self) -> tuple[tuple[int, ...], dict]:
        """All 2^k expansion outputs and their preimage map; the one k bound of block search."""
        if self.k > TABLE_K:
            raise ValueError(f"exhaustive block search limited to k <= {TABLE_K}")
        return _prg_table(self.expansion, self.k)

    @cached_property
    def block_outputs(self) -> tuple:
        """Per block j, ``block_outputs[j][seed] == prg(seed) << (j * 3k)``;
        one shared object per (expansion, k, ell), never built per CRS."""
        return _block_outputs(self.expansion, self.k, self.ell)

    def invert(self, pairs) -> dict[int, int]:
        """``{value: Opening.bits}`` for the ``(value, com)`` pairs (value in [0, 2n])
        that open, inverted block by block; a pair is dropped at its first block
        without a preimage.  Complete since blocks are independent (k <= ``TABLE_K``)."""
        pre, width, value_masks = self.prg_table[1].get, self.block_bits, self.value_masks
        mask, shifts, found = (1 << width) - 1, range(0, self.ell * self.k, self.k), {}
        for value, com in pairs:
            targets, seeds = com.bits ^ value_masks[value], 0  # block j: the PRG output seed j needs
            for shift in shifts:
                seed = pre(targets & mask)
                if seed is None:
                    break
                seeds |= seed << shift
                targets >>= width
            else:
                found[value] = seeds
        return found

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "expansion": self.expansion,
            "bits": serde.int_to_hex(self.bits, self.total_bits),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CRS":
        n, k = serde.require(obj, "n", int), serde.require(obj, "k", int)
        expansion, bits = serde.require(obj, "expansion", str), serde.require(obj, "bits", str)
        if unknown := sorted(obj.keys() - {"n", "k", "expansion", "bits"}):
            raise ValueError(f"unknown crs keys {unknown}")
        nbits = value_bit_length(n) * 3 * k
        return cls(n=n, k=k, expansion=expansion, bits=serde.hex_to_int(bits, nbits))


# not frozen: built n times per dealing, never mutated, and frozen __init__ costs 2-3x
@dataclass(unsafe_hash=True)
class Opening:
    """The ``ell`` k-bit PRG seeds as one ``ell*k``-bit integer, block j's seed
    at bit offset ``j*k``; the absent opening is represented by ``None``."""

    bits: int

    def to_json(self, crs: CRS) -> str:
        return serde.int_to_hex(self.bits, crs.ell * crs.k)

    @classmethod
    def from_json(cls, text: str, crs: CRS) -> "Opening":
        return cls(serde.hex_to_int(text, crs.ell * crs.k))


def opening_from_json(obj: str | None, crs: CRS) -> Opening | None:
    return None if obj is None else Opening.from_json(obj, crs)


@dataclass(unsafe_hash=True)
class Commitment:
    """``ell`` blocks of ``3k`` bits, block j at bit offset ``j*3k``."""

    bits: int

    def to_json(self, crs: CRS) -> str:
        return serde.int_to_hex(self.bits, crs.total_bits)

    @classmethod
    def from_json(cls, text: str, crs: CRS) -> "Commitment":
        return cls(serde.hex_to_int(text, crs.total_bits))


def crs_gen(n: int, k: int, rng: Stream, expansion: str = "splitmix64") -> CRS:
    nbits = value_bit_length(n) * 3 * k  # refuses n < 1 before k is read
    if k < 4:
        raise ValueError("seed length k must be >= 4")
    return CRS(n=n, k=k, bits=rng.bits(nbits), expansion=expansion)


def sample_opening(crs: CRS, rng: Stream) -> Opening:
    """One uniform draw of ``ell*k`` bits (one 64-bit word while ``ell*k <= 64``)."""
    return Opening(rng.bits(crs.ell * crs.k))


def commit(value: int, opening: Opening, crs: CRS) -> Commitment:
    """Commit to ``value`` in [2n]; deterministic in (value, opening, crs)."""
    if not 1 <= value <= 2 * crs.n:
        raise ValueError(f"value {value} outside [2n] = [1, {2 * crs.n}]")
    seeds, k, mask = opening.bits, crs.k, (1 << crs.k) - 1
    if seeds < 0 or seeds >> (crs.ell * k):  # a negative one would index a table from its end
        raise ValueError(f"opening outside [0, 2^(ell*k)) = [0, 2^{crs.ell * k})")
    bits = crs.value_masks[value]
    for out in crs.block_outputs:
        bits ^= out[seeds & mask]
        seeds >>= k
    return Commitment(bits)


def commitment_list(values, crs: CRS, rng: Stream,
                    openings: dict | None = None) -> tuple[Commitment | None, ...]:
    """``tuple(commit(v, sample_opening(crs, rng), crs) for v in values)`` in one
    loop, building no openings unless a dict ``openings`` is given to store each
    committed value's opening under the value.  A value of None draws one
    opening and commits nothing (None in its place)."""
    k, nbits = crs.k, crs.ell * crs.k
    draw = rng.next64 if nbits <= 64 else partial(rng.bits, nbits)
    full, mask = (1 << nbits) - 1, (1 << k) - 1
    top, outputs, value_masks = 2 * crs.n, crs.block_outputs, crs.value_masks
    coms = []
    for value in values:
        if value is None:
            draw()
            coms.append(None)
            continue
        if not 1 <= value <= top:
            raise ValueError(f"value {value} outside [2n] = [1, {top}]")
        bits, seeds = value_masks[value], draw() & full
        if openings is not None:
            openings[value] = Opening(seeds)
        for out in outputs:
            bits ^= out[seeds & mask]
            seeds >>= k
        coms.append(Commitment(bits))
    return tuple(coms)


def verify_opening(value: int, opening: Opening | None, crs: CRS, com: Commitment) -> bool:
    """True iff the opening is present and recommits to ``com`` exactly."""
    if opening is None:
        return False
    try:
        return commit(value, opening, crs) == com
    except ValueError:
        return False


@lru_cache(maxsize=32)
def _prg_table(expansion: str, k: int) -> tuple[tuple[int, ...], dict]:
    """All 2^k expansion outputs plus a preimage map (first seed wins)."""
    fn = EXPANSIONS[expansion]
    outs = tuple(fn(seed, k) for seed in range(1 << k))
    pre: dict[int, int] = {}
    for seed in range((1 << k) - 1, -1, -1):
        pre[outs[seed]] = seed
    return outs, pre


class _ShiftedPrg:
    def __init__(self, expansion: str, k: int, shift: int):
        self.prg, self.k, self.shift = EXPANSIONS[expansion], k, shift

    def __getitem__(self, seed: int) -> int:
        return self.prg(seed, self.k) << self.shift


@lru_cache(maxsize=32)
def _block_outputs(expansion: str, k: int, ell: int) -> tuple:
    """Block j's PRG outputs shifted to offset ``j * 3k``: tabled for k <= ``TABLE_K``,
    computed per read above."""
    shifts = range(0, ell * 3 * k, 3 * k)
    if k > TABLE_K:
        return tuple(_ShiftedPrg(expansion, k, shift) for shift in shifts)
    return tuple(tuple(out << shift for out in _prg_table(expansion, k)[0]) for shift in shifts)


def block_preimage(crs: CRS, target: int) -> int | None:
    """A seed with PRG(seed) == target, or None (exhaustive, k <= ``TABLE_K``)."""
    return crs.prg_table[1].get(target)


def find_opening(value: int, com: Commitment, crs: CRS) -> Opening | None:
    """The opening of ``com`` to ``value``, or None: :meth:`CRS.invert` on one pair."""
    if not 1 <= value <= 2 * crs.n:
        raise ValueError(f"value {value} outside [2n] = [1, {2 * crs.n}]")
    seeds = crs.invert(((value, com),)).get(value)
    return None if seeds is None else Opening(seeds)


def supports_disjoint(crs: CRS, v1: int, v2: int) -> bool:
    """True iff no opening pair makes commit(v1) collide with commit(v2).

    Checked per differing bit position: the supports of block j are
    ``{PRG(s)}`` and ``{PRG(s) XOR crs_j}``, and the commitments can only
    collide if *every* differing block admits a collision.  Equal values
    trivially share their own support, so the answer there is False.
    """
    image = set(crs.prg_table[0])  # refuses k > TABLE_K before the values are read
    for v in (v1, v2):
        if not 1 <= v <= 2 * crs.n:
            raise ValueError(f"value {v} outside [2n]")
    if v1 == v2:
        return False
    for j in range(crs.ell):
        if ((v1 ^ v2) >> j) & 1:
            crs_block = crs.blocks[j]
            if all((out ^ crs_block) not in image for out in image):
                return True
    return False
