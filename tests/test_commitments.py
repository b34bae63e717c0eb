"""Commitment layer: golden vectors, sizes, binding, hiding smoke test."""

import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from npshare.commitments import (
    CRS,
    EXPANSIONS,
    Commitment,
    Opening,
    block_preimage,
    commit,
    commitment_list,
    crs_gen,
    find_opening,
    opening_from_json,
    prg_splitmix64,
    prg_toy,
    sample_opening,
    supports_disjoint,
    verify_opening,
)
from npshare.rng import Stream

M64 = (1 << 64) - 1


def reference_splitmix64_stream(seed, nwords):
    """Independent oracle, written straight from the published constants."""
    out = []
    state = seed & M64
    for _ in range(nwords):
        state = (state + 0x9E3779B97F4A7C15) & M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        z ^= z >> 31
        out.append(z)
    return out


def reference_prg(seed, k):
    words = reference_splitmix64_stream(seed, (3 * k + 63) // 64)
    value = 0
    for t, w in enumerate(words):
        value |= w << (64 * t)
    return value & ((1 << (3 * k)) - 1)


def seeds_of(opening, crs):
    """The ell k-bit seeds of a packed opening, block 0 first."""
    return tuple((opening.bits >> (j * crs.k)) & ((1 << crs.k) - 1) for j in range(crs.ell))


# Golden vectors, frozen from the reference implementation above.
GOLDEN_PRG = {(0, 8): 0x1DCDAF, (1, 8): 0x025CC1, (255, 8): 0x283FB4}
GOLDEN_CRS_HEX = "fad05890fa1682ca790487ce"
GOLDEN_COMMIT3_HEX = "551d453f370bafcd1dafcd1d"
GOLDEN_TOY = {(0, 8): 0x5EBD77, (1, 8): 0x25A69B, (63, 6): 0x329A4}


def test_prg_matches_reference_oracle():
    for (seed, k), expected in GOLDEN_PRG.items():
        assert prg_splitmix64(seed, k) == expected
        assert reference_prg(seed, k) == expected
    for seed in range(0, 256, 17):
        assert prg_splitmix64(seed, 8) == reference_prg(seed, 8)
        assert prg_splitmix64(seed, 21) == reference_prg(seed, 21)


def test_toy_prg_golden():
    for (seed, k), expected in GOLDEN_TOY.items():
        assert prg_toy(seed, k) == expected


def test_crs_sizes():
    assert crs_gen(4, 8, Stream(0)).total_bits == 96
    assert crs_gen(1, 8, Stream(0)).total_bits == 48
    assert crs_gen(4, 8, Stream(0)).ell == 4
    assert crs_gen(1, 8, Stream(0)).ell == 2


def test_crs_deterministic_under_seed():
    assert crs_gen(5, 8, Stream(123)).bits == crs_gen(5, 8, Stream(123)).bits
    assert crs_gen(5, 8, Stream(123)).bits != crs_gen(5, 8, Stream(124)).bits


def test_golden_commitment_vector():
    crs = crs_gen(4, 8, Stream(0xC0FFEE))
    assert crs.to_json()["bits"] == GOLDEN_CRS_HEX
    com = commit(3, Opening(0), crs)
    assert com.to_json(crs) == GOLDEN_COMMIT3_HEX
    # re-derive from the independent oracle
    words = reference_splitmix64_stream(0xC0FFEE, 2)
    crs_bits = (words[0] | (words[1] << 64)) & ((1 << 96) - 1)
    expected = 0
    for j in range(4):
        block = reference_prg(0, 8)
        if (3 >> j) & 1:
            block ^= (crs_bits >> (24 * j)) & 0xFFFFFF
        expected |= block << (24 * j)
    assert com.bits == expected


def test_bit_rules():
    crs = crs_gen(4, 8, Stream(5))
    op = sample_opening(crs, Stream(6))
    com = commit(4, op, crs)  # 4 = 0b100: bits j=0,1 zero, j=2 one
    for j in range(crs.ell):
        block = (com.bits >> (j * crs.block_bits)) & ((1 << crs.block_bits) - 1)
        if (4 >> j) & 1:
            assert block ^ crs.blocks[j] == crs.block_outputs[0][seeds_of(op, crs)[j]]
        else:
            assert block == crs.block_outputs[0][seeds_of(op, crs)[j]]


def test_commit_errors():
    for k in (8, 13):  # with and without a PRG table
        crs = crs_gen(4, k, Stream(1))
        op = sample_opening(crs, Stream(2))
        with pytest.raises(ValueError):
            commit(0, op, crs)
        with pytest.raises(ValueError):
            commit(9, op, crs)
        com = commit(1, op, crs)
        # A negative opening must not index a table from its end: it is
        # refused like one past the top, and neither opens anything.
        for bad in (-1, -op.bits - 1, 1 << (crs.ell * k), op.bits | (1 << (crs.ell * k))):
            with pytest.raises(ValueError, match="opening outside"):
                commit(1, Opening(bad), crs)
            assert not verify_opening(1, Opening(bad), crs, com)


@pytest.mark.parametrize("n, k, message", [
    (0, 8, "n must be >= 1"), (-1, 8, "n must be >= 1"), (0, 1, "n must be >= 1"),
    (3, 3, "k must be >= 4"), (3, -1, "k must be >= 4"),
])
def test_crs_gen_refuses_bad_n_then_bad_k_before_drawing(n, k, message):
    rng = Stream(4)
    with pytest.raises(ValueError, match=message):
        crs_gen(n, k, rng)
    assert rng.state == Stream(4).state


def test_find_opening_errors():
    crs = crs_gen(4, 8, Stream(1))
    com = commit(1, sample_opening(crs, Stream(2)), crs)
    for value in (0, 9, -1):  # -1 would otherwise read value_masks[-1]
        with pytest.raises(ValueError, match="outside"):
            find_opening(value, com, crs)


def test_verify_opening_round_trip_and_bottom():
    crs = crs_gen(4, 8, Stream(7))
    op = sample_opening(crs, Stream(8))
    com = commit(2, op, crs)
    assert verify_opening(2, op, crs, com)
    assert not verify_opening(2, None, crs, com)
    assert not verify_opening(9, op, crs, com)  # out-of-range is False, not an error


def test_cross_value_opening_rejected_for_binding_crs():
    # If the supports of 2 and 5 are disjoint, *no* opening can cross over.
    crs = crs_gen(4, 8, Stream(99))
    assert supports_disjoint(crs, 2, 5)
    op = sample_opening(crs, Stream(100))
    com = commit(2, op, crs)
    assert find_opening(5, com, crs) is None
    assert not verify_opening(5, op, crs, com)


def test_supports_disjoint_same_value_false():
    crs = crs_gen(4, 8, Stream(3))
    assert supports_disjoint(crs, 3, 3) is False


def test_supports_disjoint_zero_crs_false():
    crs = CRS(n=4, k=8, bits=0)
    assert supports_disjoint(crs, 1, 2) is False


def test_supports_disjoint_refuses_large_k():
    crs = crs_gen(2, 16, Stream(0))
    with pytest.raises(ValueError):
        supports_disjoint(crs, 1, 2)


@pytest.mark.parametrize("expansion", ["splitmix64", "toy"])
@pytest.mark.parametrize("k", [12, 13])
def test_every_prg_table_reader_works_at_k_12_and_refuses_k_13(k, expansion):
    """CRS.prg_table is the one bound on exhaustive block work: each reader
    answers at k = 12, and at k = 13 raises the table's one message before it
    reads its arguments (so equal or out-of-range values are refused too)."""
    crs = crs_gen(3, k, Stream(k), expansion=expansion)
    com, prg = commit(2, sample_opening(crs, Stream(1)), crs), EXPANSIONS[expansion]
    readers = [
        lambda: commit(2, Opening(crs.invert([(2, com)])[2]), crs) == com,
        lambda: commit(2, find_opening(2, com, crs), crs) == com,
        lambda: prg(block_preimage(crs, prg(77, k)), k) == prg(77, k),
        lambda: supports_disjoint(crs, 1, 2) in (True, False),
        lambda: supports_disjoint(crs, 1, 1) is False,
    ]
    for read in readers:
        if k == 12:
            assert read()
        else:
            with pytest.raises(ValueError, match="^exhaustive block search limited to k <= 12$"):
                read()
    with pytest.raises(ValueError, match="outside" if k == 12 else "limited to k <= 12"):
        supports_disjoint(crs, 0, 1)


def test_supports_disjoint_mostly_holds_over_random_crs():
    hits = sum(
        supports_disjoint(crs_gen(4, 8, Stream(1000 + i)), 1, 2) for i in range(100)
    )
    assert hits >= 99


def test_supports_disjoint_against_pair_enumeration():
    # Independent oracle at k=4: commitments to v1 and v2 can collide iff
    # *every* differing block admits a colliding seed pair.
    for draw in range(12):
        crs = crs_gen(2, 4, Stream(4000 + draw))
        outs = [crs.block_outputs[0][s] for s in range(16)]
        for v1 in range(1, 5):
            for v2 in range(v1 + 1, 5):
                collidable = True
                for j in range(crs.ell):
                    if ((v1 ^ v2) >> j) & 1:
                        blk = crs.blocks[j]
                        if not any(a ^ blk == b for a in outs for b in outs):
                            collidable = False
                assert supports_disjoint(crs, v1, v2) == (not collidable)


def reference_commit_bits(value, opening, crs, prg):
    """commit() written per bit from the definition: block j is
    PRG(seed_j) XOR (bit_j(value) * crs_block_j)."""
    width = 3 * crs.k
    bits = 0
    for j, seed in enumerate(seeds_of(opening, crs)):
        crs_block = (crs.bits >> (j * width)) & ((1 << width) - 1)
        block = prg(seed, crs.k) ^ (crs_block if (value >> j) & 1 else 0)
        bits |= block << (j * width)
    return bits


def reference_find_opening(value, com, crs, prg):
    """Per block, the smallest seed whose PRG output hits the target."""
    width = 3 * crs.k
    first = {}
    for seed in range(1 << crs.k):
        first.setdefault(prg(seed, crs.k), seed)
    seeds = []
    for j in range(crs.ell):
        target = (com.bits >> (j * width)) & ((1 << width) - 1)
        if (value >> j) & 1:
            target ^= (crs.bits >> (j * width)) & ((1 << width) - 1)
        if target not in first:
            return None
        seeds.append(first[target])
    return Opening(sum(seed << (j * crs.k) for j, seed in enumerate(seeds)))


@pytest.mark.parametrize("expansion, prg", [("splitmix64", prg_splitmix64), ("toy", prg_toy)])
@pytest.mark.parametrize("k", [4, 8, 12])
def test_commit_and_find_opening_match_per_bit_reference(k, expansion, prg):
    crs = crs_gen(5, k, Stream(k), expansion=expansion)
    rng = Stream(100 + k)
    for value in range(1, 2 * crs.n + 1):
        op = sample_opening(crs, rng)
        com = commit(value, op, crs)
        assert com.bits == reference_commit_bits(value, op, crs, prg)
        for probe in (value, value % (2 * crs.n) + 1):
            assert find_opening(probe, com, crs) == reference_find_opening(probe, com, crs, prg)


@pytest.mark.parametrize("expansion, prg", [("splitmix64", prg_splitmix64), ("toy", prg_toy)])
@pytest.mark.parametrize("k", [4, 8, 13, 64])
def test_block_outputs_are_shared_shifted_prg_outputs(k, expansion, prg):
    """One table per (expansion, k, ell), never rebuilt per CRS; block j's
    entry for a seed is that seed's PRG output at the block's offset."""
    crs = crs_gen(3, k, Stream(k), expansion=expansion)
    assert crs.block_outputs is crs_gen(3, k, Stream(k + 1), expansion=expansion).block_outputs
    assert len(crs.block_outputs) == crs.ell
    picker = Stream(k)
    seeds = range(1 << k) if k <= 8 else [0, (1 << k) - 1] + [picker.bits(k) for _ in range(200)]
    for j, out in enumerate(crs.block_outputs):
        for seed in seeds:
            shifted = crs.block_outputs[0][seed] << (j * crs.block_bits)
            assert out[seed] == shifted == prg(seed, k) << (j * 3 * k)


@pytest.mark.parametrize("k", [4, 8, 12, 13, 64, 65, 80])
def test_sample_opening_draws_like_stream_bits(k):
    """An opening is one ell*k-bit draw, one 64-bit word while ell*k <= 64."""
    for n in (1, 3, 5, 6):
        crs = crs_gen(n, k, Stream(3))
        fast, reference = Stream(77), Stream(77)
        for _ in range(3):
            assert sample_opening(crs, fast) == Opening(reference.bits(crs.ell * k))
            assert fast.state == reference.state
        words = -(-crs.ell * k // 64)
        assert fast.state == Stream(77 + 3 * words * 0x9E3779B97F4A7C15).state


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("k", [4, 8, 12, 13, 64, 65])
def test_packed_opening_layout(k, n):
    """Block j reads bits j*k..(j+1)*k of the packed opening; the wire form is
    the hex of those ell*k bits; commit refuses anything outside them."""
    crs = crs_gen(n, k, Stream(k + n))
    op = sample_opening(crs, Stream(n))
    assert Opening.from_json(op.to_json(crs), crs) == op
    assert len(op.to_json(crs)) == 2 * -(-crs.ell * k // 8)
    value = 1 + Stream(k).randrange(2 * n)
    assert commit(value, op, crs).bits == reference_commit_bits(value, op, crs, prg_splitmix64)
    for bad in (-1, 1 << (crs.ell * k)):
        with pytest.raises(ValueError, match="opening outside"):
            commit(value, Opening(bad), crs)


@pytest.mark.parametrize("expansion", ["splitmix64", "toy"])
@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("k", [4, 8, 10, 12, 13, 64, 65])
def test_commitment_list_equals_per_opening_commits(k, n, expansion):
    """The fused list makes the draws and commitments of one sample_opening
    and one commit per value, on both sides of the PRG table (k <= 12) and
    of the one-word opening (ell*k <= 64)."""
    crs = crs_gen(n, k, Stream(k * 7 + n), expansion=expansion)
    picker = Stream(n)
    lists = [range(1, n + 1), range(n + 1, 2 * n + 1), []] + [
        [1 + picker.randrange(2 * n) for _ in range(2 * n)] for _ in range(8)]
    for t, values in enumerate(lists):
        fused, reference = Stream(t), Stream(t)
        assert commitment_list(values, crs, fused) == tuple(
            commit(v, sample_opening(crs, reference), crs) for v in values)
        assert fused.state == reference.state
        stored, reference = {}, Stream(t)
        commitment_list(values, crs, Stream(t), stored)
        assert stored == {v: sample_opening(crs, reference) for v in values}
    for bad in (0, 2 * n + 1):
        with pytest.raises(ValueError):
            commitment_list([1, bad], crs, Stream(1))


def test_commitment_list_range_check_survives_python_O():
    src = str(Path(__file__).parent.parent / "src")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from npshare.commitments import commitment_list, crs_gen\n"
        "from npshare.rng import Stream\n"
        "crs = crs_gen(3, 8, Stream(1))\n"
        "try:\n    commitment_list([2 * crs.n + 1], crs, Stream(0))\n"
        "except ValueError:\n    print('raised')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "raised"


def test_find_opening_inverts_commit():
    crs = crs_gen(3, 8, Stream(11))
    for value in (1, 4, 6):
        op = sample_opening(crs, Stream(50 + value))
        com = commit(value, op, crs)
        recovered = find_opening(value, com, crs)
        assert recovered is not None
        assert commit(value, recovered, crs) == com


def test_opening_serialization_round_trip():
    crs = crs_gen(4, 8, Stream(21))
    op = sample_opening(crs, Stream(22))
    assert opening_from_json(op.to_json(crs), crs) == op
    assert opening_from_json(None, crs) is None


def test_crs_json_round_trip():
    crs = crs_gen(6, 8, Stream(31), expansion="toy")
    assert CRS.from_json(crs.to_json()) == crs
    com = commit(5, sample_opening(crs, Stream(32)), crs)
    assert Commitment.from_json(com.to_json(crs), crs) == com


@settings(max_examples=50, deadline=None)
@given(value=st.integers(min_value=1, max_value=8), seed=st.integers(min_value=0, max_value=2**32))
def test_commit_verify_property(value, seed):
    crs = crs_gen(4, 8, Stream(0xABCDEF))
    op = sample_opening(crs, Stream(seed))
    assert verify_opening(value, op, crs, commit(value, op, crs))


def two_sample_chi2(counts_a, counts_b):
    stat = 0.0
    bins = 0
    for a, b in zip(counts_a, counts_b):
        if a + b:
            stat += (a - b) ** 2 / (a + b)
            bins += 1
    return stat, bins - 1


@pytest.mark.parametrize("dof", [2, 4, 10, 40, 128, 256])
def test_chi2_sf_matches_closed_form_at_even_dof(chi2_sf, dof):
    # For even dof, P(chi^2 > x) = exp(-x/2) * sum_{i < dof/2} (x/2)^i / i!,
    # which checks both the series (x < dof + 2) and the continued fraction.
    for x in (0.01, 0.5 * dof, 0.9 * dof, dof + 1.9, dof + 2.1, 1.5 * dof, 3.0 * dof + 20):
        half, term, closed = x / 2, 1.0, 0.0
        for i in range(dof // 2):
            closed += term
            term *= half / (i + 1)
        closed *= math.exp(-half)
        assert chi2_sf(x, dof) == pytest.approx(closed, rel=1e-10, abs=1e-15)


def _hiding_chi2_stat(k, samples=10_000):
    crs = crs_gen(4, k, Stream(0x11DE))
    counts = [[0] * 256, [0] * 256]
    rng = Stream(0x5EED)
    for idx, value in enumerate((1, 2)):
        for _ in range(samples):
            com = commit(value, sample_opening(crs, rng), crs)
            counts[idx][com.bits & 0xFF] += 1  # low byte of block 0
    return two_sample_chi2(counts[0], counts[1])


def test_hiding_chi2_smoke(chi2_sf):
    # First block of commit(1, .) vs commit(2, .): the marginals should be
    # statistically indistinguishable for the pinned PRG.  Not a security
    # proof; a sanity check at significance 0.001.  Meaningful only when
    # the seed space dwarfs the sample count, hence k=24 here.
    stat, dof = _hiding_chi2_stat(24)
    assert chi2_sf(stat, dof) > 0.001


def test_hiding_fails_at_tiny_seed_space(chi2_sf):
    # The flip side of statistical binding: with only 2^8 seeds the two
    # block distributions are sparse permuted histograms and the same
    # test rightly rejects.  Documented, expected behavior at k=8.
    stat, dof = _hiding_chi2_stat(8)
    assert chi2_sf(stat, dof) < 0.001
