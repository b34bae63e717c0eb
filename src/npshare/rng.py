"""Deterministic randomness built on SplitMix64.

Every random draw in the library flows through a :class:`Stream` so that
dealings, experiments and reports reproduce bit-exactly from a single
64-bit master seed, independent of Python's own RNG.  Per-trial streams
are derived as ``Stream(derive_seed(master_seed, trial_index))``, which
makes trials order-independent and safe to fan out; a named lane (the
CRS, the D' runs) draws from ``derive_seed(derive_seed(master_seed, LANE),
t)`` and so meets no trial stream.

SplitMix64 constants (increment and the two finalizer multipliers) are
fixed here and reused by the commitment expansion functions.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """One SplitMix64 output for initial state ``x``."""
    z = (x + GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Per-trial seed in two stages, as SplitMix's split: ``mix64(mix64(master) XOR
    index)``, so the trial streams of two master seeds meet only by chance."""
    return mix64(mix64(master_seed) ^ index)


class Stream:
    """A SplitMix64 word stream with small draw helpers."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        return z ^ (z >> 31)

    def bits(self, nbits: int) -> int:
        """``nbits`` uniform bits, 64-bit words concatenated little-endian."""
        if nbits > 8192:  # one join: past ~128 words the OR chain's copies cost more
            data = b"".join(self.next64().to_bytes(8, "little") for _ in range(0, nbits, 64))
            return int.from_bytes(data, "little") & ((1 << nbits) - 1)
        out = 0
        shift = 0
        while shift < nbits:
            out |= self.next64() << shift
            shift += 64
        return out & ((1 << nbits) - 1)

    def bit(self) -> int:
        return self.next64() & 1

    def bytes(self, nbytes: int) -> bytes:
        return self.bits(8 * nbytes).to_bytes(nbytes, "little")

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound), rejection-sampled (unbiased)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        span = (1 << 64) - ((1 << 64) % bound)
        while True:
            w = self.next64()
            if w < span:
                return w % bound
