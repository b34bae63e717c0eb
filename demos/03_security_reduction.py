"""The security reduction, executed.

Suppose an adversary (Samp, D) distinguishes shared secrets whenever the
sampled subset is unqualified.  The reduction turns it into a
distinguisher D' against the *commitment* scheme: given n unopened
commitments that are either all honest values (Z = A0) or all shifted by
n (Z = A1), D' tells which.

The catch the paper's machinery exists for: deciding whether a sampled
X is unqualified may itself be hard (the structure is in monotone NP).
So D' never decides it - instead the sub-procedure mest *measures*
whether the single-trial subroutine dver is biased for this X, and only
then spends its one query on the real input.

This demo uses the deliberately leaky witness-encryption backend: when
an instance is in the induced language the ciphertext leaks its message,
which hands D a genuine distinguishing advantage - exactly the
counterfactual the reduction needs to have any signal to amplify.
"""

from npshare import PartySet, Stream, derive_seed, threshold_structure
from npshare.harness import (
    SchemeContext,
    bias_estimate,
    dprime_gap,
    ind_game,
    leak_reader,
    mest,
    mixed_sampler,
)

structure = threshold_structure(6, 2)
ctx = SchemeContext.create(structure, seed=31337, backend="leaky")
D = leak_reader()
sampler = mixed_sampler(structure, p_unqualified=0.3, secret_len=4)

print("=== step 0: the adversary really does win the sharing game ===")
report = ind_game(ctx, sampler, D, trials=800, master_seed=1)
print(f"ind-game advantage {report.advantage:.3f} "
      f"(+-{report.radius:.3f}); unqualified draws: {report.extra['mx0_trials']}/800")

print()
print("=== step 1: dver is biased exactly when X is unqualified ===")
s0, s1 = b"AAAA", b"BBBB"
for label, members in (("unqualified {1}", {1}), ("qualified {1,2,3}", {1, 2, 3})):
    X = PartySet.of(6, members)
    est = bias_estimate(s0, s1, X, ctx, D, trials=400, master_seed=2)
    print(f"bias for {label:18}: {est.advantage:.3f} (+-{est.radius:.3f})")

print()
print("=== step 2: mest notices the bias without ever deciding M(X) ===")
for label, members in (("unqualified {1}", {1}), ("qualified {1,2,3}", {1, 2, 3})):
    X = PartySet.of(6, members)
    votes = sum(
        mest(s0, s1, X, 0.3, 6, ctx, D, Stream(derive_seed(3, t))) for t in range(5)
    )
    print(f"mest fired on {label:18}: {votes}/5 runs")

print()
print("=== step 3: D' distinguishes the two commitment worlds ===")
runs = 40
a0, a1 = dprime_gap(ctx, 0.3, sampler, D, runs,
                    lambda t: tuple(derive_seed(lane, t) for lane in (4, 5, 6, 7)))
print(f"Pr[D'=1 | Z=A0] ~ {a0 / runs:.2f}")
print(f"Pr[D'=1 | Z=A1] ~ {a1 / runs:.2f}")
print(f"gap ~ {abs(a0 - a1) / runs:.2f}  (the target bound is eps/10 = 0.03)")
