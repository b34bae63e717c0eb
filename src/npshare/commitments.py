"""Perfectly binding commitments in the common-random-string model.

The construction is the classic PRG-based bitwise commitment: to commit
to an ``ell``-bit value under a CRS of ``ell`` blocks of ``3k`` bits, each
value bit ``b_j`` is committed as ``PRG(seed_j) XOR (b_j * crs_block_j)``
with a fresh ``k``-bit seed per bit.  Committed values live in
``[2n] = {1, .., 2n}``, so ``ell = ceil(log2(2n+1))``.  The kernel indexes
pre-shifted per-block PRG outputs cached per ``(expansion, k, ell)``.

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


def prg_toy(seed: int, k: int) -> int:
    """Circuit-friendly expansion: 3 mix rounds on k-bit words.

    Each round adds the (truncated) SplitMix64 increment, then applies
    xorshift / multiply / xorshift with the truncated finalizer
    constants.  Output words are concatenated little-endian, word t at
    bit offset t*k.  Must stay in lockstep with the circuit in
    :mod:`npshare.circuits`.
    """
    mask = (1 << k) - 1
    inc = GOLDEN & mask
    mults = (MIX1 & mask, MIX2 & mask, MIX1 & mask)
    s1 = max(1, k // 2)
    s2 = max(1, k // 2 + 1)
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
    def prg_table(self) -> tuple[tuple[int, ...], dict] | None:
        """All 2^k expansion outputs and their preimage map, for k <= 12."""
        return _prg_table(self.expansion, self.k) if self.k <= 12 else None

    @cached_property
    def block_outputs(self) -> tuple:
        """Per block j, ``block_outputs[j][seed] == prg(seed) << (j * 3k)``;
        one shared object per (expansion, k, ell), never built per CRS."""
        return _block_outputs(self.expansion, self.k, self.ell)

    @cached_property
    def canonical_bytes(self) -> bytes:
        """Canonical JSON of :meth:`to_json`, rendered once per CRS."""
        return serde.canonical_json_bytes(self.to_json())

    def prg(self, seed: int) -> int:
        return self.block_outputs[0][seed]

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
        nbits = value_bit_length(n) * 3 * k
        return cls(n=n, k=k, expansion=expansion, bits=serde.hex_to_int(bits, nbits))


@dataclass(frozen=True)
class Opening:
    """Per-bit PRG seeds; the absent opening is represented by ``None``."""

    seeds: tuple[int, ...]

    def to_json(self, crs: CRS) -> str:
        packed = 0
        for j, seed in enumerate(self.seeds):
            packed |= seed << (j * crs.k)
        return serde.int_to_hex(packed, crs.ell * crs.k)

    @classmethod
    def from_json(cls, text: str, crs: CRS) -> "Opening":
        packed = serde.hex_to_int(text, crs.ell * crs.k)
        mask = (1 << crs.k) - 1
        return cls(tuple((packed >> (j * crs.k)) & mask for j in range(crs.ell)))


def opening_from_json(obj: str | None, crs: CRS) -> Opening | None:
    return None if obj is None else Opening.from_json(obj, crs)


@dataclass(frozen=True)
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
    """``ell`` k-bit seeds; for k <= 64 each is the one draw ``rng.bits(k)`` makes."""
    draw = rng.next64 if crs.k <= 64 else partial(rng.bits, crs.k)
    mask = (1 << crs.k) - 1
    return Opening(tuple([draw() & mask for _ in range(crs.ell)]))


def commit(value: int, opening: Opening, crs: CRS) -> Commitment:
    """Commit to ``value`` in [2n]; deterministic in (value, opening, crs)."""
    if not 1 <= value <= 2 * crs.n:
        raise ValueError(f"value {value} outside [2n] = [1, {2 * crs.n}]")
    if len(opening.seeds) != crs.ell:
        raise ValueError(f"opening has {len(opening.seeds)} seeds, expected {crs.ell}")
    bits = crs.value_masks[value]
    for out, seed in zip(crs.block_outputs, opening.seeds):
        if seed >> crs.k:  # also true of a negative seed, which would index from the end
            raise ValueError("opening seed outside [0, 2^k)")
        bits ^= out[seed]
    return Commitment(bits)


def commitment_list(values, crs: CRS, rng: Stream,
                    openings: dict | None = None) -> tuple[Commitment | None, ...]:
    """``tuple(commit(v, sample_opening(crs, rng), crs) for v in values)`` in one
    loop, building no openings unless a dict ``openings`` is given to store each
    committed value's opening under the value.  A value of None draws one
    opening's words and commits nothing (None in its place)."""
    draw, mask = (rng.next64 if crs.k <= 64 else partial(rng.bits, crs.k)), (1 << crs.k) - 1
    top, outputs, value_masks = 2 * crs.n, crs.block_outputs, crs.value_masks
    coms = []
    for value in values:
        if value is None:
            for _ in outputs:
                draw()
            coms.append(None)
            continue
        if not 1 <= value <= top:
            raise ValueError(f"value {value} outside [2n] = [1, {top}]")
        bits, seeds = value_masks[value], []
        for out in outputs:
            seed = draw() & mask
            seeds.append(seed)
            bits ^= out[seed]
        if openings is not None:
            openings[value] = Opening(tuple(seeds))
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
    """Block j's PRG outputs shifted to offset ``j * 3k``: tabled for k <= 12,
    computed per read above."""
    shifts = range(0, ell * 3 * k, 3 * k)
    if k > 12:
        return tuple(_ShiftedPrg(expansion, k, shift) for shift in shifts)
    return tuple(tuple(out << shift for out in _prg_table(expansion, k)[0]) for shift in shifts)


def block_preimage(crs: CRS, target: int) -> int | None:
    """A seed with PRG(seed) == target, or None (exhaustive, k <= 12)."""
    if crs.prg_table is None:
        raise ValueError("exhaustive block search limited to k <= 12")
    return crs.prg_table[1].get(target)


def find_opening(value: int, com: Commitment, crs: CRS) -> Opening | None:
    """Exhaustively invert a commitment to ``value``, block by block.

    Sound and complete because blocks are independent: an opening exists
    iff every block's PRG target has a preimage.
    """
    if not 1 <= value <= 2 * crs.n:
        raise ValueError(f"value {value} outside [2n] = [1, {2 * crs.n}]")
    targets = com.bits ^ crs.value_masks[value]  # block j: the PRG output seed j needs
    mask = (1 << crs.block_bits) - 1
    seeds = tuple(block_preimage(crs, (targets >> shift) & mask)
                  for shift in range(0, crs.total_bits, crs.block_bits))
    return None if None in seeds else Opening(seeds)


def supports_disjoint(crs: CRS, v1: int, v2: int) -> bool:
    """True iff no opening pair makes commit(v1) collide with commit(v2).

    Checked per differing bit position: the supports of block j are
    ``{PRG(s)}`` and ``{PRG(s) XOR crs_j}``, and the commitments can only
    collide if *every* differing block admits a collision.  Equal values
    trivially share their own support, so the answer there is False.
    """
    if crs.prg_table is None:
        raise ValueError("exhaustive support check limited to k <= 12")
    for v in (v1, v2):
        if not 1 <= v <= 2 * crs.n:
            raise ValueError(f"value {v} outside [2n]")
    if v1 == v2:
        return False
    image = set(crs.prg_table[0])
    for j in range(crs.ell):
        if ((v1 ^ v2) >> j) & 1:
            crs_block = crs.blocks[j]
            if all((out ^ crs_block) not in image for out in image):
                return True
    return False
