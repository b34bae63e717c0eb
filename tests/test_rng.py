"""The SplitMix64 stream: word order of multi-word draws."""

import pytest

from npshare.rng import Stream


def or_loop_bits(stream: Stream, nbits: int) -> int:
    """The one-word-at-a-time OR loop: each 64-bit word shifted into place."""
    out = 0
    shift = 0
    while shift < nbits:
        out |= stream.next64() << shift
        shift += 64
    return out & ((1 << nbits) - 1)


@pytest.mark.parametrize("nbits", [0, 1, 63, 64, 65, 128, 1000, 8192, 8193, 100_003])
def test_bits_equals_or_loop(nbits):
    # above 8192 bits the words are joined as bytes instead: same words, same order
    for seed in (0, 7, (1 << 64) - 1):
        fast, reference = Stream(seed), Stream(seed)
        assert fast.bits(nbits) == or_loop_bits(reference, nbits)
        assert fast.state == reference.state
        assert fast.next64() == reference.next64()
