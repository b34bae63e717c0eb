"""The commitment layer: statistically binding, computationally hiding.

Party i's share opens a commitment to the *value* i.  Binding is what
makes the security reduction tick: a commitment to n+i can never be
opened as i, so substituted instances fall outside the induced language.
At desk scale (k = 8 seed bits) binding is checkable by exhaustive
enumeration - and the same tiny seed space means the scheme is *not*
statistically hiding, which the last section shows honestly.
"""

from npshare import Opening, Stream, commit, crs_gen, sample_opening, supports_disjoint
from npshare.commitments import find_opening

print("=== sizes and golden determinism ===")
crs = crs_gen(4, 8, Stream(0xC0FFEE))
print(f"n=4, k=8: ell={crs.ell} blocks of {crs.block_bits} bits, CRS = {crs.total_bits} bits")
com = commit(3, Opening(0), crs)
print("commit(3, zero seeds) =", com.to_json(crs), "(pinned golden vector)")

print()
print("=== binding: disjoint supports over random CRS draws ===")
draws = 100
ok = 0
for i in range(draws):
    crs_i = crs_gen(4, 8, Stream(10_000 + i))
    ok += all(
        supports_disjoint(crs_i, a, b) for a in range(1, 9) for b in range(a + 1, 9)
    )
print(f"all 28 value pairs disjoint in {ok}/{draws} random CRS draws")

print()
print("=== what binding buys: cross-value openings do not exist ===")
rng = Stream(77)
opening = sample_opening(crs, rng)
com2 = commit(2, opening, crs)
print("commitment to 2, searched for an opening to 6:", find_opening(6, com2, crs))
print("searched for an opening to 2 (the real one):  ",
      find_opening(2, com2, crs) is not None)

print()
print("=== the tradeoff: tiny seed spaces leak statistically ===")
# Histogram distance between first blocks of commit(1,.) and commit(2,.)
# shrinks as the seed space grows; at k=8 the supports are sparse enough
# to tell apart, at k=24 they look identical to 10^4 samples.
for k in (8, 16, 24):
    crs_k = crs_gen(4, k, Stream(0x11DE))
    counts = [[0] * 256, [0] * 256]
    sampler = Stream(0x5EED)
    for row, value in enumerate((1, 2)):
        for _ in range(4000):
            c = commit(value, sample_opening(crs_k, sampler), crs_k)
            counts[row][c.bits & 0xFF] += 1  # low byte of block 0
    total0, total1 = map(sum, counts)
    # integer sum, one division: the distance rounded once
    l1 = sum(abs(a * total1 - b * total0) for a, b in zip(*counts)) / (2 * total0 * total1)
    print(f"k={k:2}: total-variation distance of first-byte marginals ~ {l1:.3f}")
print("(k=8 is genuinely distinguishable; k>=16 sits at the ~0.14 sampling noise floor)")
