"""The SplitMix64 stream: word order of multi-word draws, and seed lanes."""

import pytest

from npshare import cli, harness
from npshare.rng import GOLDEN, MASK64, MIX1, MIX2, Stream, derive_seed, mix64
from npshare.scheme import SchemeContext
from npshare.structures import threshold_structure


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


def unmix64(z: int) -> int:
    """The x with mix64(x) == z: each xorshift and multiply undone in turn."""
    z ^= (z >> 31) ^ (z >> 62)
    z = (z * pow(MIX2, -1, 1 << 64)) & MASK64
    z ^= (z >> 27) ^ (z >> 54)
    z = (z * pow(MIX1, -1, 1 << 64)) & MASK64
    z ^= (z >> 30) ^ (z >> 60)
    return (z - GOLDEN) & MASK64


def test_master_seeds_and_named_lanes_never_alias(monkeypatch):
    """Seeds 0-7 x 1,000 trials are 8,000 distinct streams, and the streams of
    the named lanes (the CRS, the CLI's D' lists and runs, ind_to_sem's probe)
    are no trial stream of any of these seeds: as trials of their own seed
    their indices all lie above 2^32."""
    assert all(unmix64(mix64(x)) == x for x in (0, 1, 0xC125, MASK64))
    trial_seeds = {derive_seed(s, t) for s in range(8) for t in range(1000)}
    assert len(trial_seeds) == 8000
    created, lanes = [], []
    real_init = Stream.__init__

    def recording_init(self, seed):
        created.append(seed & MASK64)
        real_init(self, seed)

    monkeypatch.setattr(Stream, "__init__", recording_init)
    monkeypatch.setattr(harness, "dprime_gap", lambda *args: lanes.append(args[-1]) or (0, 0))
    structure = threshold_structure(3, 2)
    for seed in range(8):
        created.clear()
        SchemeContext.create(structure, seed=seed)
        harness.ind_to_sem(harness.mixed_sampler(structure, 0.3, 4), harness.leak_reader(), 32,
                           probe_seed=seed)
        cli._run_experiment({"structure": {"kind": "threshold", "n": 3, "payload": 2},
                             "game": "dprime", "runs": 1000}, seed)
        assert len(created) == 3  # the CRS, the probe, the CLI's CRS (the same one)
        lane_seeds = set(created) | {x for t in range(1000) for x in lanes[-1](t)}
        assert len(lane_seeds) == 2 + 4 * 1000
        assert lane_seeds.isdisjoint(trial_seeds)
        assert min(unmix64(x) ^ mix64(seed) for x in lane_seeds) >> 32
