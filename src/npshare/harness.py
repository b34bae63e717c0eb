"""Executable security experiments for the scheme.

This module turns the two security definitions (indistinguishability and
unlearnability of the secret) and the whole reduction into runnable,
seeded Monte-Carlo procedures:

* :func:`dver` - one distinguishing trial: flip b, deal secret b with
  :meth:`SchemeContext.deal`'s substitution (fresh commitments for the
  parties of X, the input commitments elsewhere), and score whether D
  recovers b.
* :func:`mest` - the Chernoff-style bias estimator: ceil(4n/eps)
  iterations, each running dver once on fresh commitments to 1..n and
  once on fresh commitments to n+1..2n; answers 1 iff |q0 - q1| > n
  (strictly).  At X's positions, which dver replaces, it draws but never commits.
* :func:`dprime` - the outer distinguisher: up to ceil(n/eps) rounds of
  (sample, mest), answering with dver's verdict on the first round where
  mest fires, and 0 otherwise.
* :func:`dprime_gap` - the reduction end to end: D' on A0 lists and on
  A1 lists over many runs, each run on its caller's seed lanes.
* :func:`bias_estimate` - the bias functional dver maximizes, estimated
  directly (a :class:`GameReport` with game ``"bias"``).
* :func:`hybrid_locate` - the hybrid-argument lemma as an index locator
  over an abstract per-position sample source.
* :func:`sem_to_ind` / :func:`ind_to_sem` - the definition-equivalence
  transformations, as executable adversary rewrites.

Every experiment runs on a :class:`~npshare.scheme.SchemeContext`, the
scheme pinned to one CRS, which this module re-exports.  Samplers and
distinguishers are plain callables:

* ind-sampler: ``rng -> (s0, s1, X, sigma)`` with |s0| = |s1|;
* sem-sampler: ``rng -> (s, X, sigma)`` (:func:`sem_view` makes one
  from an ind-sampler by dropping s1);
* distinguisher: ``(s0, s1, shares, sigma, rng) -> bit``;
* learner: ``(shares, sigma, rng) -> value``;
* simulator: ``(X, sigma, rng) -> value``.

Everything is a deterministic function of a 64-bit master seed; trial t
runs on ``Stream(derive_seed(master_seed, t))`` and a named lane on
``derive_seed(derive_seed(master_seed, LANE), t)``, which meets no trial
stream, so reports reproduce byte-identically and trials are
order-independent.  The M(X)=0 side conditions in the game definitions
are decided by exhaustive search (and cached), which the games must do
even though D' itself never does - that is the entire point of mest.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field

from . import serde
from .commitments import CRS, commitment_list, find_opening
from .rng import Stream, derive_seed
from .scheme import SchemeContext, shares_of
from .structures import AccessStructure, PartySet, evaluate
from .we import leak_message, load_relation


def hoeffding_radius(trials: int, delta: float) -> float:
    return math.sqrt(math.log(2.0 / delta) / (2.0 * trials))


@functools.lru_cache(maxsize=1 << 15)  # every subset at evaluate's n <= 15 limit
def qualified(structure: AccessStructure, X: PartySet) -> bool:
    """Ground-truth M(X), decided exhaustively and cached."""
    return evaluate(structure, X, expensive=True)


def dver(commitments, s0: bytes, s1: bytes, X: PartySet, scheme: SchemeContext,
         D, rng: Stream, sigma: bytes = b"") -> int:
    """One distinguishing trial; 1 iff D recovers the encrypted index b.
    ``commitments`` is read outside X only (None may stand at X's positions).

    Draw order is pinned: b, then ``scheme.deal``'s draws, then D's."""
    b = rng.bit()
    shares_x = scheme.deal(s1 if b else s0, rng, commitments, X).shares
    return 1 if D(s0, s1, shares_x, sigma, rng) == b else 0


def mest_iterations(eps: float, n: int) -> int:
    return math.ceil(4 * n / eps)


def _side_values(n: int, X: PartySet) -> tuple[list, ...]:
    """A0's 1..n and A1's n+1..2n, None (drawn, not committed) at X's positions."""
    return tuple([None if i in X else i + base for i in range(1, n + 1)] for base in (0, n))


def mest(s0: bytes, s1: bytes, X: PartySet, eps: float, n: int,
         scheme: SchemeContext, D, rng: Stream, sigma: bytes = b"") -> int:
    """Bias estimator: 1 iff |q0 - q1| > n strictly after ceil(4n/eps) rounds.
    Each round's lists draw an opening per party but commit outside X only."""
    if not 0 < eps <= 1 or n != scheme.n:
        raise ValueError(f"need eps in (0, 1] and n = {scheme.n}, got {eps} and {n}")
    a0, a1 = _side_values(n, X)
    q0 = q1 = 0
    for _ in range(mest_iterations(eps, n)):
        q0 += dver(commitment_list(a0, scheme.crs, rng), s0, s1, X, scheme, D, rng, sigma)
        q1 += dver(commitment_list(a1, scheme.crs, rng), s0, s1, X, scheme, D, rng, sigma)
    return 1 if abs(q0 - q1) > n else 0


def dprime(commitments, eps: float, n: int, sampler, D,
           scheme: SchemeContext, rng: Stream) -> int:
    """The outer commitment-list distinguisher of the reduction."""
    if not 0 < eps <= 1 or n != scheme.n:
        raise ValueError(f"need eps in (0, 1] and n = {scheme.n}, got {eps} and {n}")
    for _ in range(math.ceil(n / eps)):
        s0, s1, X, sigma = sampler(rng)
        if mest(s0, s1, X, eps, n, scheme, D, rng, sigma) == 1:
            return dver(commitments, s0, s1, X, scheme, D, rng, sigma)
    return 0


def dprime_gap(scheme: SchemeContext, eps: float, sampler, D, runs: int,
               lanes) -> tuple[int, int]:
    """D' acceptance counts (on A0 lists, on A1 lists) over ``runs`` runs.

    ``lanes(t)`` gives run t's four stream seeds, in this order: the A0
    list, D' on it, the A1 list, D' on it.  Every run draws only from its
    own streams, so the counts do not depend on the order of the runs.
    """
    c0 = c1 = 0
    for t in range(runs):
        a0_list, a0_run, a1_list, a1_run = lanes(t)
        c0 += dprime(scheme.a0_commitments(Stream(a0_list)), eps, scheme.n,
                     sampler, D, scheme, Stream(a0_run))
        c1 += dprime(scheme.a1_commitments(Stream(a1_list)), eps, scheme.n,
                     sampler, D, scheme, Stream(a1_run))
    return c0, c1


@dataclass
class GameReport:
    """Empirical advantage estimate with its Hoeffding confidence radius."""

    game: str
    trials: int
    count0: int
    count1: int
    advantage: float
    radius: float
    delta: float
    master_seed: int
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


def _report(game: str, trials: int, count0: int, count1: int, delta: float,
            master_seed: int, mx0: int | None = None) -> GameReport:
    """A game's report; a game conditioned on M(X) = 0 passes ``mx0``, its
    number of trials with M(X) = 0, and gets the conditioned estimate too."""
    extra = {} if mx0 is None else {
        "mx0_trials": mx0,
        "advantage_conditioned": (abs(count0 - count1) / mx0) if mx0 else 0.0,
    }
    return GameReport(
        game=game, trials=trials, count0=count0, count1=count1,
        advantage=abs(count0 - count1) / trials,
        radius=hoeffding_radius(trials, delta),
        delta=delta, master_seed=master_seed, extra=extra,
    )


def bias_estimate(s0: bytes, s1: bytes, X: PartySet, scheme: SchemeContext, D,
                  trials: int, master_seed: int, delta: float = 0.01) -> GameReport:
    """Monte-Carlo estimate of dver's advantage for recognizing Z = A0; like
    mest, each trial's lists draw an opening per party, commit outside X."""
    if trials < 100:
        raise ValueError("bias estimation needs at least 100 trials")
    a0, a1 = _side_values(scheme.n, X)
    count0 = count1 = 0
    for t in range(trials):
        rng = Stream(derive_seed(master_seed, t))
        count0 += dver(commitment_list(a0, scheme.crs, rng), s0, s1, X, scheme, D, rng)
        count1 += dver(commitment_list(a1, scheme.crs, rng), s0, s1, X, scheme, D, rng)
    return _report("bias", trials, count0, count1, delta, master_seed)


def _game(game: str, scheme: SchemeContext, trial, trials: int, master_seed: int,
          delta: float) -> GameReport:
    """The ind and sem games' one trial loop.  ``trial(rng)`` plays trial t
    on ``Stream(derive_seed(master_seed, t))`` and returns (X, hit0, hit1);
    a hit counts only when M(X) = 0."""
    if trials < 100:
        raise ValueError("games need at least 100 trials")
    qualified(scheme.structure, PartySet.empty(scheme.n))  # refuse infeasible decisions early
    count0 = count1 = mx0 = 0
    for t in range(trials):
        X, hit0, hit1 = trial(Stream(derive_seed(master_seed, t)))
        if not qualified(scheme.structure, X):
            mx0 += 1
            count0 += bool(hit0)
            count1 += bool(hit1)
    return _report(game, trials, count0, count1, delta, master_seed, mx0)


def ind_game(scheme: SchemeContext, sampler, D, trials: int, master_seed: int,
             delta: float = 0.01) -> GameReport:
    """Indistinguishability game: the gap between D's acceptance of
    shares(s0, X) and shares(s1, X), conjoined with M(X) = 0.

    Paired design: each trial draws the sampler once and runs D on both
    dealings.  The report also carries the estimate conditioned on
    M(X) = 0 in ``extra`` (the definition's quantity is the
    unconditioned conjunction).
    """

    def trial(rng: Stream):
        s0, s1, X, sigma = sampler(rng)
        if len(s0) != len(s1):
            raise ValueError("sampler must emit equal-length secrets")
        dealing0 = scheme.deal(s0, rng)
        hit0 = D(s0, s1, shares_of(dealing0, X), sigma, rng) == 1
        dealing1 = scheme.deal(s1, rng)
        return X, hit0, D(s0, s1, shares_of(dealing1, X), sigma, rng) == 1

    return _game("ind", scheme, trial, trials, master_seed, delta)


def sem_game(scheme: SchemeContext, sampler, learner, simulator, f, trials: int,
             master_seed: int, delta: float = 0.01) -> GameReport:
    """Unlearnability game: how much better the learner predicts f(S)
    from the shares of X than the simulator does from X alone."""

    def trial(rng: Stream):
        s, X, sigma = sampler(rng)
        target = f(s)
        dealing = scheme.deal(s, rng)
        hit0 = learner(shares_of(dealing, X), sigma, rng) == target
        return X, hit0, simulator(X, sigma, rng) == target

    return _game("sem", scheme, trial, trials, master_seed, delta)


# ---------------------------------------------------------------------------
# Hybrid-argument locator (the list-to-pair lemma, executable form).


def hybrid_values(n: int, i: int) -> tuple[int, ...]:
    """Values of the i-th hybrid: (1..n-i, 2n-i+1..2n)."""
    if not 0 <= i <= n:
        raise ValueError("hybrid index out of range")
    return tuple(p if p <= n - i else n + p for p in range(1, n + 1))


@dataclass
class HybridLocation:
    index: int                      # i in 1..n with maximal adjacent gap
    gap: float                      # |p[i-1] - p[i]| at that index
    value_x: int                    # the pair the wrapped distinguisher separates
    value_y: int
    probs: tuple[float, ...]        # acceptance estimate per hybrid 0..n
    signed_gaps: tuple[float, ...]  # p[i-1] - p[i] for i = 1..n
    radius: float
    trials: int
    master_seed: int
    distinguisher: object = field(repr=False)

    def to_json(self) -> dict:
        return {key: value for key, value in asdict(self).items() if key != "distinguisher"}


def hybrid_locate(list_D, n: int, trials: int, master_seed: int,
                  sample_source, delta: float = 0.01) -> HybridLocation:
    """Locate the adjacent hybrid with maximal estimated gap.

    ``sample_source(value, rng)`` yields one sample for any value in
    1..2n; ``list_D(samples, rng)`` judges an n-sample list.  The
    returned pairwise distinguisher embeds its single input sample at
    the differing position of the located hybrid pair and draws the
    rest from the source, separating values n-i+1 and 2n-i+1.  Signed
    gaps telescope exactly to probs[0] - probs[n].
    """
    probs = []
    for i in range(n + 1):
        values = hybrid_values(n, i)
        hits = 0
        for t in range(trials):
            rng = Stream(derive_seed(master_seed, i * trials + t))
            samples = [sample_source(v, rng) for v in values]
            hits += 1 if list_D(samples, rng) == 1 else 0
        probs.append(hits / trials)
    signed = tuple(probs[i - 1] - probs[i] for i in range(1, n + 1))
    best = max(range(1, n + 1), key=lambda i: abs(signed[i - 1]))
    value_x, value_y = n - best + 1, 2 * n - best + 1

    def pairwise(sample, rng: Stream) -> int:  # hybrid best-1 with value_x replaced
        samples = [sample if v == value_x else sample_source(v, rng)
                   for v in hybrid_values(n, best - 1)]
        return 1 if list_D(samples, rng) == 1 else 0

    return HybridLocation(
        index=best, gap=abs(signed[best - 1]), value_x=value_x, value_y=value_y,
        probs=tuple(probs), signed_gaps=signed,
        radius=hoeffding_radius(trials, delta), trials=trials,
        master_seed=master_seed, distinguisher=pairwise,
    )


# ---------------------------------------------------------------------------
# Definition-equivalence transformations (the two appendix directions).


def sem_to_ind(sampler, learner, f):
    """Rewrite an unlearnability adversary as an indistinguishability one.

    The new sampler pairs the sampled secret with the all-zero secret of
    the same length; the new distinguisher answers 1 exactly when the
    learner's output equals f applied to the *second* secret.
    """

    def sampler2(rng: Stream):
        s, X, sigma = sampler(rng)
        return bytes(len(s)), s, X, sigma

    def D2(s0, s1, shares, sigma, rng: Stream) -> int:
        return 1 if learner(shares, sigma, rng) == f(s1) else 0

    return sampler2, D2


def dictator(i: int, t: int):
    """f_i: bit i (least significant = 0) of the t-bit value of the secret."""
    if not 0 <= i < t:
        raise ValueError("dictator index out of range")

    def f(secret: bytes) -> int:
        return (int.from_bytes(secret, "big") >> i) & 1

    return f


def dictator_diff(s0: bytes, s1: bytes, t: int) -> tuple[int, ...]:
    """Indices of the dictator functions that separate s0 from s1."""
    x = int.from_bytes(s0, "big") ^ int.from_bytes(s1, "big")
    return tuple(i for i in range(t) if (x >> i) & 1)


@dataclass
class IndToSem:
    """The unlearnability adversary induced by an ind adversary.

    ``sampler`` draws (s0, s1, X, sigma) from the original sampler,
    flips a uniform bit b and emits (s_b, X, sigma') where sigma'
    carries both secrets.  ``learner(f)`` emulates the original
    distinguisher and outputs f of the secret it points at.  The
    baseline simulator guesses a coin: its success on any separating
    dictator function is exactly 1/2, since b is uniform and
    independent of (X, sigma').  ``dictators`` is empty (reported
    explicitly, not an error) when the sampler emits equal secrets.
    """

    sampler: object
    learner: object = field(repr=False)  # f -> learner
    simulator: object = field(repr=False)
    dictators: tuple[int, ...] = ()


def ind_to_sem(sampler, D, t: int, probe_seed: int = 0) -> IndToSem:
    def sampler2(rng: Stream):
        s0, s1, X, sigma = sampler(rng)
        b = rng.bit()
        sigma2 = serde.canonical_json_bytes(
            {"s0": s0.hex(), "s1": s1.hex(), "sigma": sigma.hex()}
        )
        return (s1 if b else s0), X, sigma2

    def learner_factory(f):
        def learner(shares, sigma2, rng: Stream):
            obj = json.loads(sigma2)
            s0, s1 = bytes.fromhex(obj["s0"]), bytes.fromhex(obj["s1"])
            sigma = bytes.fromhex(obj["sigma"])
            d = D(s0, s1, shares, sigma, rng)
            return f(s1 if d == 1 else s0)

        return learner

    def simulator(X, sigma2, rng: Stream):
        return rng.bit()

    s0, s1, _, _ = sampler(Stream(derive_seed(derive_seed(probe_seed, 0xD1FF), 0)))
    return IndToSem(
        sampler=sampler2,
        learner=learner_factory,
        simulator=simulator,
        dictators=dictator_diff(s0, s1, t),
    )


# ---------------------------------------------------------------------------
# Stock samplers and distinguishers.


def fixed_sampler(s0: bytes, s1: bytes, X: PartySet, sigma: bytes = b""):
    def sampler(rng: Stream):
        return s0, s1, X, sigma

    return sampler


def mixed_sampler(structure: AccessStructure, p_unqualified: float, secret_len: int):
    """Distinct random secrets; X is a random singleton (unqualified) with
    probability ~p_unqualified, the full party set otherwise.

    Requires every singleton to be unqualified and the full set to be
    qualified, which holds for all shipped structures of interest.
    """
    if secret_len < 1 or not 0 <= p_unqualified <= 1:
        raise ValueError("mixed_sampler needs secret_len >= 1 and p_unqualified in [0, 1]")
    n = structure.n
    if not qualified(structure, PartySet.full(n)):
        raise ValueError("full party set must be qualified")
    for i in range(1, n + 1):
        if qualified(structure, PartySet.of(n, {i})):
            raise ValueError("singletons must be unqualified for this sampler")
    threshold = int(p_unqualified * (1 << 53))

    def sampler(rng: Stream):
        s0 = rng.bytes(secret_len)
        while True:
            s1 = rng.bytes(secret_len)
            if s1 != s0:
                break
        if rng.bits(53) < threshold:
            X = PartySet.of(n, {1 + rng.randrange(n)})
        else:
            X = PartySet.full(n)
        return s0, s1, X, b""

    return sampler


def sem_view(ind_sampler):
    """The sem-sampler ``rng -> (s0, X, sigma)`` that drops s1 from each draw."""

    def sampler(rng: Stream):
        s0, _, X, sigma = ind_sampler(rng)
        return s0, X, sigma

    return sampler


def constant_distinguisher(bit: int):
    def D(s0, s1, shares, sigma, rng):
        return bit

    return D


def shape_distinguisher():
    """Parses only byte lengths of the serialized shares (honest no-op)."""

    def D(s0, s1, shares, sigma, rng):
        total = sum(len(serde.canonical_json_bytes(s.to_json())) for s in shares)
        return total & 1

    return D


def _leaked(shares) -> bytes | None:
    """The plaintext the first share's ciphertext leaks; None without shares."""
    return leak_message(shares[0].ciphertext) if shares else None


def leak_reader():
    """Reads the leaky backend's plaintext; 1 iff it equals s1, 0 otherwise."""

    def D(s0, s1, shares, sigma, rng):
        return 1 if _leaked(shares) == s1 else 0

    return D


def planted_bias_distinguisher(beta: float, probe_party: int, crs: CRS):
    """A distinguisher with dver-bias exactly ``beta`` (leaky backend).

    Intended for a *qualified* X (both mest branches then leak, so b is
    known on every call) with ``probe_party`` outside X.  The branch is
    identified by exhaustively testing whether the probe commitment
    opens to its own index (Z = A0) or not (Z = A1); the answer is
    exact on A0 and flipped with probability beta on A1, which plants
    Pr[dver=1 | A0] = 1 and Pr[dver=1 | A1] = 1 - beta.

    The one-sided (correlated) plant matters: at desk scale the paper's
    |q0 - q1| > n test sits within one standard deviation of an
    independent-coin plant's noise, so only plants whose A0 branch is
    deterministic calibrate cleanly.  ``crs`` is the scheme's CRS; only
    the probe commitment is read from the embedded instance.
    """
    threshold = int(beta * (1 << 53))

    def D(s0, s1, shares, sigma, rng):
        leaked = _leaked(shares)
        if leaked is None:
            return 0
        b = 1 if leaked == s1 else 0
        com = load_relation(shares[0].ciphertext).instance.commitments[probe_party - 1]
        if find_opening(probe_party, com, crs) is not None:
            return b
        return b ^ 1 if rng.bits(53) < threshold else b

    return D


def leak_learner():
    """Sem-game learner: outputs the leaked secret, or zeros of the right length."""

    def learner(shares, sigma, rng):
        leaked = _leaked(shares)
        if leaked is None:
            return bytes(shares[0].ciphertext.msg_len if shares else 0)
        return leaked

    return learner


def guess_simulator(msg_len: int):
    def simulator(X, sigma, rng):
        return rng.bytes(msg_len)

    return simulator


def transparent_sample_source(value: int, rng: Stream) -> int:
    """Mock per-position source: the sample is the value itself."""
    return value


def position_detector(j: int, gap: float, n: int):
    """List distinguisher that looks at position j only (for the mock
    source): accepts with probability 1/2 + gap/2 while the position
    still carries a low value, 1/2 - gap/2 after the hybrid swaps it."""
    if not (1 <= j <= n and 0 <= gap <= 1):
        raise ValueError(f"position_detector needs j in 1..n = 1..{n} and gap in [0, 1]")
    hi = int((0.5 + gap / 2) * (1 << 53))
    lo = int((0.5 - gap / 2) * (1 << 53))

    def list_D(samples, rng: Stream) -> int:
        p = hi if samples[j - 1] <= n else lo
        return 1 if rng.bits(53) < p else 0

    return list_D
