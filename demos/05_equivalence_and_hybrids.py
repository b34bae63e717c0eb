"""The two appendix tools: definition equivalence and the hybrid locator.

Indistinguishability ("can't tell two secrets apart") and unlearnability
("can't predict f(secret) better than a simulator") are equivalent, and
the proofs are constructive adversary rewrites - so they run.  The
hybrid lemma that converts a gap on n-commitment *lists* into a gap on a
single *pair* of values is likewise an executable search for the right
hybrid index.
"""

from npshare import PartySet, Stream, derive_seed, threshold_structure
from npshare.harness import (
    SchemeContext,
    dictator,
    hybrid_locate,
    ind_game,
    ind_to_sem,
    fixed_sampler,
    guess_simulator,
    leak_learner,
    leak_reader,
    mixed_sampler,
    position_detector,
    sem_game,
    sem_to_ind,
    sem_view,
    transparent_sample_source,
)

structure = threshold_structure(6, 2)
ctx = SchemeContext.create(structure, seed=17, backend="leaky")
sampler_sem = sem_view(mixed_sampler(structure, 0.3, 1))

print("=== unlearnability -> indistinguishability ===")
identity = lambda s: s
sem = sem_game(ctx, sampler_sem, leak_learner(), guess_simulator(1), identity,
               trials=600, master_seed=100)
print(f"sem gap of the leaky learner (f = identity): {sem.advantage:.3f}")
samp2, d2 = sem_to_ind(sampler_sem, leak_learner(), identity)
ind = ind_game(ctx, samp2, d2, trials=600, master_seed=101)
print(f"transformed ind adversary's advantage:       {ind.advantage:.3f}")

print()
print("=== indistinguishability -> unlearnability (dictator functions) ===")
transformed = ind_to_sem(fixed_sampler(b"\x00", b"\xa5", PartySet.of(6, {1})),
                         leak_reader(), t=8)
print("bits where the two secrets differ (the separating dictators):",
      list(transformed.dictators))
f = dictator(transformed.dictators[0], 8)
hits = 0
for t in range(600):
    rng = Stream(derive_seed(102, t))
    s_b, X, sigma2 = transformed.sampler(rng)
    hits += transformed.simulator(X, sigma2, rng) == f(s_b)
print(f"share-less baseline simulator predicts f(S_b) at {hits / 600:.3f} (exactly 1/2 in the limit)")

print()
print("=== hybrid locator: from a list gap to a pairwise gap ===")
n, planted_position, planted_gap = 8, 3, 0.8
loc = hybrid_locate(position_detector(planted_position, planted_gap, n), n,
                    trials=400, master_seed=103,
                    sample_source=transparent_sample_source)
print(f"planted a detector at position {planted_position} with gap {planted_gap}")
print(f"located hybrid index {loc.index} "
      f"(positions swap back-to-front, so position {n - loc.index + 1})")
print(f"adjacent gap there: {loc.gap:.3f}; it separates values "
      f"{loc.value_x} vs {loc.value_y}")
print("per-hybrid acceptance:", [round(p, 2) for p in loc.probs])
print(f"telescoping check: signed gaps sum to {sum(loc.signed_gaps):+.3f} "
      f"= end-to-end gap {loc.probs[0] - loc.probs[-1]:+.3f}")
