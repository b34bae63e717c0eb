"""Security-harness machinery: dver/mest/dprime, bias, hybrids, equivalences."""

import hashlib

import pytest

from npshare import harness, serde, we
from npshare.harness import (
    SchemeContext,
    bias_estimate,
    constant_distinguisher,
    dictator,
    dictator_diff,
    dprime,
    dprime_gap,
    dver,
    fixed_sampler,
    hoeffding_radius,
    hybrid_locate,
    hybrid_values,
    ind_game,
    ind_to_sem,
    leak_learner,
    leak_reader,
    mest,
    mest_iterations,
    mixed_sampler,
    guess_simulator,
    planted_bias_distinguisher,
    position_detector,
    qualified,
    sem_game,
    sem_to_ind,
    sem_view,
    shape_distinguisher,
    transparent_sample_source,
)
from npshare.commitments import commit, find_opening, sample_opening
from npshare.induced import MPrimeInstance
from npshare.rng import Stream, derive_seed
from npshare.scheme import Share, shares_of
from npshare.structures import PartySet, evaluate, hamiltonian_structure, threshold_structure
from npshare.we import leak_message

S0, S1 = b"AAAA", b"BBBB"


class RecordingStream(Stream):
    """Stream that remembers every 64-bit word it hands out."""

    def __init__(self, seed):
        super().__init__(seed)
        self.words = []

    def next64(self):
        word = super().next64()
        self.words.append(word)
        return word


class TapeStream(Stream):
    """Stream that replays a fixed word sequence."""

    def __init__(self, words):
        super().__init__(0)
        self.tape = list(words)
        self.pos = 0

    def next64(self):
        word = self.tape[self.pos]
        self.pos += 1
        return word


@pytest.fixture(scope="module")
def leaky6():
    return SchemeContext.create(threshold_structure(6, 2), seed=31337, backend="leaky")


def test_dver_constant_d_is_fair_coin(leaky6):
    trials = 10_000
    hits = 0
    for t in range(trials):
        rng = Stream(derive_seed(0xD0, t))
        coms = leaky6.a0_commitments(rng)
        hits += dver(coms, S0, S1, PartySet.of(6, {1}), leaky6,
                     constant_distinguisher(0), rng)
    assert abs(hits / trials - 0.5) <= hoeffding_radius(trials, 0.01)


def test_dver_full_set_ignores_input_commitments(leaky6):
    X = PartySet.full(6)
    D = leak_reader()
    for t in range(25):
        seed = derive_seed(0xD1, t)
        rng_a = Stream(seed)
        coms_a = leaky6.a0_commitments(Stream(derive_seed(0xD2, t)))
        out_a = dver(coms_a, S0, S1, X, leaky6, D, rng_a)
        rng_b = Stream(seed)
        coms_b = leaky6.a1_commitments(Stream(derive_seed(0xD3, t)))
        out_b = dver(coms_b, S0, S1, X, leaky6, D, rng_b)
        assert out_a == out_b
        # construction paths agree byte for byte as well
        dealing_a = leaky6.deal(S0, Stream(seed), coms_a, X)
        dealing_b = leaky6.deal(S0, Stream(seed), coms_b, X)
        assert dealing_a.public == dealing_b.public
        assert [s.to_json() for s in dealing_a.shares] == [s.to_json() for s in dealing_b.shares]


def test_dver_share_distribution_identity_under_a0():
    """Coupled-transcript form of the share-identity claim: under Z=A0 the
    shares dver builds are the same random variable as honest SETUP's.

    With the dver transcript spliced into SETUP (input-commitment
    randomness for parties outside X, dver's own openings inside X, the
    same encryption randomness) the instance and every share of X agree
    byte for byte."""
    structure = threshold_structure(3, 2)
    ctx = SchemeContext.create(structure, seed=777, backend="idealized")
    w = -(-ctx.crs.ell * ctx.crs.k // 64)  # words per opening: one ell*k-bit draw
    X = PartySet.of(3, {2, 3})

    input_rng = RecordingStream(41)
    com_inputs = ctx.a0_commitments(input_rng)  # words: s_1, s_2, s_3 openings

    rec = RecordingStream(42)
    b = rec.bit()
    secret = S1 if b else S0
    dealing_d = ctx.deal(secret, rec, com_inputs, X)

    # SETUP tape: party 1 <- input opening s_1, parties 2,3 <- dver's r_2, r_3,
    # then the encryption key word.
    tape = (
        input_rng.words[0:w]
        + rec.words[1 + w : 1 + 3 * w]
        + rec.words[1 + 3 * w :]
    )
    honest = ctx.deal(secret, TapeStream(tape))
    assert honest.public == dealing_d.public
    honest_x = shares_of(honest, X)
    assert [s.to_json() for s in honest_x] == [s.to_json() for s in dealing_d.shares]


def test_dver_share_bytes_chi2_two_sample(chi2_sf):
    # Statistical comparison over fresh randomness: first opening byte of
    # party 2's share, honest SETUP vs dver-under-A0.  10^4 draws each.
    structure = threshold_structure(3, 2)
    ctx = SchemeContext.create(structure, seed=778, backend="idealized")
    X = PartySet.of(3, {2, 3})
    counts = [[0] * 256, [0] * 256]
    for t in range(10_000):
        rng = Stream(derive_seed(0xAB, t))
        dealing = ctx.deal(S0, rng)
        counts[0][shares_of(dealing, X)[0].opening.bits & 0xFF] += 1
        rng2 = Stream(derive_seed(0xAC, t))
        coms = ctx.a0_commitments(rng2)
        shares_d = ctx.deal(S0, rng2, coms, X).shares
        counts[1][shares_d[0].opening.bits & 0xFF] += 1
    stat = sum((a - b) ** 2 / (a + b) for a, b in zip(*counts) if a + b)
    dof = sum(1 for a, b in zip(*counts) if a + b) - 1
    assert chi2_sf(stat, dof) > 0.001


def reference_substituted_shares(commitments, X, secret, scheme, rng):
    """dver's share construction as it was before it skipped the openings
    outside X: an opening for every party."""
    openings = [sample_opening(scheme.crs, rng) for _ in range(scheme.n)]
    coms = tuple(
        commit(i, openings[i - 1], scheme.crs) if i in X else commitments[i - 1]
        for i in range(1, scheme.n + 1)
    )
    inst = MPrimeInstance(crs=scheme.crs, commitments=coms, structure=scheme.structure)
    ct = scheme.encrypt(inst, secret, rng)
    return inst, tuple(
        Share(party=i, opening=openings[i - 1], ciphertext=ct, crs=scheme.crs)
        for i in X.sorted()
    )


@pytest.mark.parametrize("backend,k,trials", [
    ("leaky", 8, 60), ("idealized", 8, 60), ("idealized", 13, 20), ("idealized", 65, 20),
    ("cnf", 4, 8), ("leaky", 4, 30), ("idealized", 12, 20), ("idealized", 64, 20),
])
def test_build_substituted_shares_equals_per_opening_reference(backend, k, trials):
    """SchemeContext.deal's substitution, and its dealing without input
    commitments (SETUP's), equal the per-opening reference."""
    n = 5
    ctx = SchemeContext.create(threshold_structure(n, 2), seed=k, backend=backend, k=k)
    for t in range(trials):
        picker = Stream(derive_seed(0x5B, t))
        members = {i for i in range(1, n + 1) if picker.bit()}
        X = PartySet.of(n, (set(), set(range(1, n + 1)), members)[min(t, 2)])
        coms = (ctx.a0_commitments, ctx.a1_commitments)[t % 2](picker)
        for args, ref_args in (((coms, X), (coms, X)),
                               ((), ((None,) * n, PartySet.full(n)))):
            fast, reference = Stream(t), Stream(t)
            dealing = ctx.deal(S1, fast, *args)
            ref_inst, ref_shares = reference_substituted_shares(*ref_args, S1, ctx, reference)
            assert dealing.public == ref_inst
            assert [s.to_json() for s in dealing.shares] == [s.to_json() for s in ref_shares]
            assert fast.state == reference.state


@pytest.mark.parametrize("members", [set(), {2}, {1, 3, 6}, set(range(1, 7))])
def test_dver_draws_an_opening_per_party_before_encryption(leaky6, members):
    X, nbits = PartySet.of(6, members), leaky6.crs.ell * leaky6.crs.k
    assert nbits <= 64  # one word per opening
    ctx = SchemeContext(structure=leaky6.structure, crs=leaky6.crs, backend="idealized")
    rec, marks = RecordingStream(5), []

    def encrypt(inst, secret, rng, known=()):
        marks.append(len(rng.words))
        return SchemeContext.encrypt(ctx, inst, secret, rng, known)

    def D(s0, s1, shares, sigma, rng):
        for share in shares:
            assert share.opening.bits == rec.words[share.party] & ((1 << nbits) - 1)
        return 0

    ctx.encrypt = encrypt
    dver(leaky6.a1_commitments(Stream(4)), S0, S1, X, ctx, D, rec)
    assert marks == [1 + 6]


@pytest.mark.parametrize("backend,k", [
    ("leaky", 8), ("idealized", 8), ("idealized", 13), ("cnf", 8),
])
def test_deal_with_every_party_substituted_is_setup(backend, k):
    """With X the full set the input commitments are all replaced, so the
    substituted dealing is SETUP's on the same stream, draw for draw."""
    n = 5
    ctx = SchemeContext.create(threshold_structure(n, 2), seed=k, backend=backend, k=k)
    for t in range(4):
        coms = (ctx.a0_commitments, ctx.a1_commitments)[t % 2](Stream(derive_seed(0x5E, t)))
        substituted, dealt = Stream(t), Stream(t)
        dealing = ctx.deal(S1, substituted, coms, PartySet.full(n))
        honest = ctx.deal(S1, dealt)
        assert dealing.public == honest.public
        assert [s.to_json() for s in dealing.shares] == [s.to_json() for s in honest.shares]
        assert substituted.state == dealt.state


def test_mest_and_dprime_answers_are_golden(monkeypatch):
    """SHA-256 over (q0, q1, verdict) of every mest call and every D' answer
    on pinned seeds, one digest per backend and distinguisher; each moves
    with the draws (an opening's words, the seed derivation).  The shape reader answers with the parity of
    the shares' serialized byte lengths, so its digest moves with the share
    format; the leak reader's does not."""
    dvers, digests = [], {}
    real_dver, real_mest = harness.dver, harness.mest

    def recording_dver(*args, **kwargs):
        dvers.append(real_dver(*args, **kwargs))
        return dvers[-1]

    def recording_mest(*args, **kwargs):
        dvers.clear()
        verdict = real_mest(*args, **kwargs)
        digest.update(repr((sum(dvers[0::2]), sum(dvers[1::2]), verdict)).encode())
        return verdict

    monkeypatch.setattr(harness, "dver", recording_dver)
    monkeypatch.setattr(harness, "mest", recording_mest)
    structure = threshold_structure(4, 2)
    for backend, D in (("leaky", leak_reader()), ("idealized", shape_distinguisher())):
        digest = digests[backend] = hashlib.sha256()
        ctx = SchemeContext.create(structure, seed=0x60D, backend=backend)
        sampler = mixed_sampler(structure, 0.3, 4)
        for t in range(3):
            for side, lists in enumerate((ctx.a0_commitments, ctx.a1_commitments)):
                rng = Stream(derive_seed(0x60D, 2 * t + side))
                answer = dprime(lists(rng), 0.5, 4, sampler, D, ctx, rng)
                digest.update(repr(("dprime", answer)).encode())
    assert {backend: d.hexdigest() for backend, d in digests.items()} == {
        "leaky": "30fd2f6ff6f092172418bb0a0c7f196ed814a397b8b9a57a1d05b67cbbdea850",
        "idealized": "4761dc9cbd1e47070b036e8ac527ebccd44892e3908265b5945e844329ddcc11",
    }


def test_leak_reader_dver_parses_no_payload(leaky6, monkeypatch):
    D = leak_reader()
    runs = [(X, t) for X in (PartySet.full(6), PartySet.of(6, {3})) for t in range(10)]
    expected = [dver(leaky6.a0_commitments(Stream(t)), S0, S1, X, leaky6, D, Stream(t))
                for X, t in runs]

    def no_parse(ct):
        raise AssertionError("payload parsed")

    monkeypatch.setattr(we, "parse_payload", no_parse)
    assert [dver(leaky6.a0_commitments(Stream(t)), S0, S1, X, leaky6, D, Stream(t))
            for X, t in runs] == expected


def test_mest_iteration_and_call_counts(leaky6):
    assert mest_iterations(0.2, 10) == 200
    calls = 0

    def counting_d(s0, s1, shares, sigma, rng):
        nonlocal calls
        calls += 1
        return 0

    ctx10 = SchemeContext.create(threshold_structure(10, 5), seed=9, backend="leaky")
    mest(S0, S1, PartySet.of(10, {1}), 0.2, 10, ctx10, counting_d, Stream(1))
    assert calls == 400  # 200 iterations x 2 dver calls


def test_mest_with_leak_reader_renders_no_envelope(leaky6, monkeypatch):
    # the leak reader reads only a ciphertext's cached fields, so no dver
    # renders or hashes an instance: both are built on first read
    calls = []
    real_sha, real_bytes = serde.sha256_hex, serde.canonical_json_bytes
    monkeypatch.setattr(serde, "sha256_hex", lambda data: calls.append("sha") or real_sha(data))
    monkeypatch.setattr(serde, "canonical_json_bytes",
                        lambda obj: calls.append("bytes") or real_bytes(obj))
    mest(S0, S1, PartySet.full(6), 0.3, 6, leaky6, leak_reader(), Stream(5))
    assert calls == []
    leaky6.deal(S1, Stream(6)).shares[0].ciphertext.to_json()
    assert "sha" in calls and "bytes" in calls  # reading the envelope renders both


def counting_stream():
    """A Stream subclass and the list of words all its instances hand out."""
    words = []

    class CountingStream(Stream):
        def next64(self):
            words.append(super().next64())
            return words[-1]

    return CountingStream, words


def reference_mest(s0, s1, X, eps, n, scheme, D, rng):
    """mest over whole A0 and A1 lists every round, X's positions committed
    too.  Returns (q0, q1, verdict)."""
    q0 = q1 = 0
    for _ in range(mest_iterations(eps, n)):
        q0 += dver(scheme.a0_commitments(rng), s0, s1, X, scheme, D, rng)
        q1 += dver(scheme.a1_commitments(rng), s0, s1, X, scheme, D, rng)
    return q0, q1, 1 if abs(q0 - q1) > n else 0


def reference_bias(s0, s1, X, scheme, D, trials, master_seed, stream):
    count0 = count1 = 0
    for t in range(trials):
        rng = stream(derive_seed(master_seed, t))
        count0 += dver(scheme.a0_commitments(rng), s0, s1, X, scheme, D, rng)
        count1 += dver(scheme.a1_commitments(rng), s0, s1, X, scheme, D, rng)
    return harness._report("bias", trials, count0, count1, 0.01, master_seed)


def instance_reader(s0, s1, shares, sigma, rng):
    """Answers with the parity of the dealt instance's digest, which reads
    every commitment in it, masked by one word of D's own draws."""
    inst = we.load_relation(shares[0].ciphertext).instance
    return (int(inst.digest(), 16) ^ rng.bit()) & 1


MEST_CASES = [
    (threshold_structure(6, 2), set(range(1, 7))),
    (threshold_structure(6, 2), {4}),
    (threshold_structure(6, 3), {2, 5}),
    (hamiltonian_structure(4), {1, 2, 6}),
]


@pytest.mark.parametrize("D", [leak_reader(), instance_reader], ids=["leak", "instance"])
@pytest.mark.parametrize("structure, members", MEST_CASES,
                         ids=["t62-full", "t62-single", "t63-pair", "ham4"])
def test_mest_and_bias_estimate_equal_whole_list_reference(structure, members, D, monkeypatch):
    """Committing only outside X changes no answer, report or draw: mest's
    q0, q1 and verdict, and bias_estimate's report, equal a reference over
    ``a0_commitments``/``a1_commitments``, word for word."""
    ctx = SchemeContext.create(structure, seed=0xBEE, backend="leaky")
    X, n = PartySet.of(structure.n, members), structure.n
    stream, words = counting_stream()
    ref_rng = stream(0x3E57)
    expected = reference_mest(S0, S1, X, 1.0, n, ctx, D, ref_rng)
    ref_words = list(words)
    words.clear()
    dvers = []
    monkeypatch.setattr(harness, "dver", lambda *a: dvers.append(dver(*a)) or dvers[-1])
    rng = stream(0x3E57)
    verdict = mest(S0, S1, X, 1.0, n, ctx, D, rng)
    assert (sum(dvers[0::2]), sum(dvers[1::2]), verdict) == expected
    assert words == ref_words and rng.state == ref_rng.state

    monkeypatch.setattr(harness, "Stream", stream)
    words.clear()
    report = bias_estimate(S0, S1, X, ctx, D, 100, master_seed=0xB1A5)
    bias_words = list(words)
    words.clear()
    reference = reference_bias(S0, S1, X, ctx, D, 100, 0xB1A5, stream)
    assert report == reference
    assert serde.canonical_json_bytes(report.to_json()) == \
        serde.canonical_json_bytes(reference.to_json())
    assert bias_words == words


@pytest.mark.parametrize("members", [{1}, {2, 5}, set(range(1, 7))])
def test_deal_never_reads_an_input_commitment_at_x(leaky6, members):
    """A sentinel at each of X's positions in the input list gives the same
    instance and shares: ``SchemeContext.deal`` reads commitments outside X only."""
    X = PartySet.of(6, members)
    for t in range(6):
        coms = (leaky6.a0_commitments, leaky6.a1_commitments)[t % 2](Stream(derive_seed(0x5E, t)))
        held = tuple(object() if i in X else com for i, com in enumerate(coms, 1))
        dealing, with_sentinels = (leaky6.deal(S1, Stream(t), given, X) for given in (coms, held))
        assert dealing.public == with_sentinels.public
        assert [s.to_json() for s in dealing.shares] == \
            [s.to_json() for s in with_sentinels.shares]


def test_party_set_over_another_count_is_refused(leaky6):
    """A party set over 9 parties names no party of a 6-party context: deal,
    and through it dver, mest and bias_estimate, refuse it instead of dealing
    no share and scoring the trial."""
    X, coms = PartySet.of(9, {7, 8}), leaky6.a0_commitments(Stream(1))
    with pytest.raises(ValueError, match="over 6 parties, got 6 and 9"):
        leaky6.deal(S1, Stream(2), coms, X)
    with pytest.raises(ValueError, match="over 6 parties, got 6 and 9"):
        dver(coms, S0, S1, X, leaky6, leak_reader(), Stream(3))
    with pytest.raises(ValueError, match="over 6 parties, got 6 and 9"):
        mest(S0, S1, X, 0.3, 6, leaky6, leak_reader(), Stream(4))
    with pytest.raises(ValueError, match="over 6 parties, got 6 and 9"):
        bias_estimate(S0, S1, X, leaky6, leak_reader(), 100, master_seed=5)


def test_mest_boundary_exact_n_is_zero():
    # Engineer |q0 - q1| == n exactly: a stateful distinguisher that is
    # right on the first n A0-branch calls and wrong everywhere else.
    structure = threshold_structure(4, 2)
    ctx = SchemeContext.create(structure, seed=55, backend="leaky")
    X = PartySet.of(4, {1, 2})   # qualified: both branches leak
    n = 4
    state = {"a0_calls": 0}

    def D(s0, s1, shares, sigma, rng):
        ct = shares[0].ciphertext
        leaked = leak_message(ct)
        assert leaked is not None
        b = 1 if leaked == s1 else 0
        inst = we.load_relation(ct).instance
        probe = 3  # outside X
        is_a0 = find_opening(probe, inst.commitments[probe - 1], inst.crs) is not None
        if is_a0:
            state["a0_calls"] += 1
            return b if state["a0_calls"] <= n else b ^ 1
        return b ^ 1

    assert mest(S0, S1, X, 0.5, 4, ctx, D, Stream(7)) == 0


def test_mest_separates_unqualified_from_qualified(leaky6):
    D = leak_reader()
    fired = sum(
        mest(S0, S1, PartySet.of(6, {1}), 0.3, 6, leaky6, D,
             Stream(derive_seed(0xE0, t)))
        for t in range(10)
    )
    calm = sum(
        mest(S0, S1, PartySet.of(6, {1, 2, 3}), 0.3, 6, leaky6, D,
             Stream(derive_seed(0xE1, t)))
        for t in range(10)
    )
    assert fired == 10 and calm == 0


def test_dprime_outer_iteration_bound():
    # A zero-bias correlated plant keeps mest silent deterministically, so
    # D' runs its full ceil(n/eps) = 16 rounds and takes the default exit.
    # (An independent-coin distinguisher would not do: at n=8 its mest
    # false-positive rate is noticeable and D' may halt early by chance.)
    ctx8 = SchemeContext.create(threshold_structure(8, 2), seed=66, backend="leaky")
    samples = {"count": 0}

    def counting_sampler(rng):
        samples["count"] += 1
        return S0, S1, PartySet.of(8, {1, 2}), b""   # qualified: both branches leak

    out = dprime(ctx8.a0_commitments(Stream(3)), 0.5, 8, counting_sampler,
                 planted_bias_distinguisher(0.0, 5, ctx8.crs), ctx8, Stream(4))
    assert out == 0                 # "output 0" branch reached
    assert samples["count"] == 16   # at most n/eps = 16 outer iterations


def test_bias_constant_d_below_radius(leaky6):
    est = bias_estimate(S0, S1, PartySet.of(6, {1}), leaky6,
                        constant_distinguisher(1), 400, master_seed=71)
    assert est.advantage <= est.radius


def test_bias_perfect_under_a0_only(leaky6):
    # leak reader on an unqualified X: right always under A0, coin under
    # A1 -> bias approx 1 - 1/2 = 0.5
    est = bias_estimate(S0, S1, PartySet.of(6, {1}), leaky6, leak_reader(),
                        600, master_seed=72)
    assert abs(est.advantage - 0.5) <= 2 * est.radius


def test_bias_estimate_reproducible(leaky6):
    a = bias_estimate(S0, S1, PartySet.of(6, {1}), leaky6, leak_reader(), 200, master_seed=73)
    b = bias_estimate(S0, S1, PartySet.of(6, {1}), leaky6, leak_reader(), 200, master_seed=73)
    assert serde.canonical_json_bytes(a.to_json()) == serde.canonical_json_bytes(b.to_json())


def test_planted_bias_calibration_quick():
    ctx = SchemeContext.create(threshold_structure(10, 5), seed=80, backend="leaky")
    Xq = PartySet.of(10, {1, 2, 3, 4, 5})
    strong = sum(
        mest(S0, S1, Xq, 0.3, 10, ctx, planted_bias_distinguisher(0.2, 7, ctx.crs),
             Stream(derive_seed(0xF0, t)))
        for t in range(12)
    )
    weak = sum(
        mest(S0, S1, Xq, 0.3, 10, ctx, planted_bias_distinguisher(0.03, 7, ctx.crs),
             Stream(derive_seed(0xF1, t)))
        for t in range(12)
    )
    # weak-plant firing probability is ~0.003 per run (Poisson tail);
    # allow the occasional hit in this small quick check
    assert strong == 12 and weak <= 1


def test_bad_event_rarity_with_zero_bias_plant():
    # 100 dprime-shaped runs with a planted-bias-0 distinguisher: the event
    # {mest fired while the bias is tiny} never occurs.
    structure = threshold_structure(4, 2)
    ctx = SchemeContext.create(structure, seed=81, backend="leaky")
    X = PartySet.of(4, {1, 2})
    D = planted_bias_distinguisher(0.0, 3, ctx.crs)
    eps, n = 0.5, 4
    bad_runs = 0
    for run in range(100):
        rng = Stream(derive_seed(0xBAD, run))
        fired = any(mest(S0, S1, X, eps, n, ctx, D, rng) == 1
                    for _ in range(8))  # ceil(n/eps) outer iterations
        bad_runs += fired  # bias is 0 <= eps/10, so any firing is BAD
    assert bad_runs <= 5


def test_qualified_agrees_with_evaluate_and_cache_is_bounded():
    assert qualified.cache_info().maxsize is not None
    for structure in (threshold_structure(4, 2), hamiltonian_structure(4)):
        for packed in range(1 << structure.n):
            X = PartySet.from_bits([(packed >> i) & 1 for i in range(structure.n)])
            assert qualified(structure, X) == evaluate(structure, X, expensive=True)
            assert qualified(structure, X) == evaluate(structure, X, expensive=True)  # cached


def test_mixed_sampler_rejects_empty_secrets(leaky6):
    # two empty secrets never differ, so drawing s1 != s0 would never end
    with pytest.raises(ValueError, match="secret_len"):
        mixed_sampler(leaky6.structure, 0.3, 0)


def test_ind_game_constant_d_zero_advantage(leaky6):
    samp = mixed_sampler(leaky6.structure, 0.3, 4)
    report = ind_game(leaky6, samp, constant_distinguisher(0), 200, master_seed=90)
    assert report.count0 == report.count1 == 0
    assert report.advantage == 0.0


def test_ind_game_leak_reader_advantage(leaky6):
    samp = mixed_sampler(leaky6.structure, 0.3, 4)
    report = ind_game(leaky6, samp, leak_reader(), 600, master_seed=91)
    p_unq = report.extra["mx0_trials"] / report.trials
    assert report.advantage >= p_unq - report.radius
    assert report.extra["advantage_conditioned"] > 0.9


def test_ind_game_shape_reader_null_advantage():
    # the mixed sampler's unqualified X is one party, and one share's length
    # is fixed per config for parties 1-9, so at n <= 9 the reader answers a
    # constant on M(X) = 0; at n = 12 parties 10-12 write one more digit
    leaky12 = SchemeContext.create(threshold_structure(12, 2), seed=31337, backend="leaky")
    samp, shape, mx0_answers = mixed_sampler(leaky12.structure, 0.3, 4), shape_distinguisher(), []

    def recording_shape(s0, s1, shares, sigma, rng):
        answer = shape(s0, s1, shares, sigma, rng)
        if not evaluate(leaky12.structure, PartySet.of(12, {s.party for s in shares})):
            mx0_answers.append(answer)
        return answer

    report = ind_game(leaky12, samp, recording_shape, 400, master_seed=92)
    assert set(mx0_answers) == {0, 1}
    assert report.advantage <= report.radius


def test_ind_game_reproducible(leaky6):
    samp = mixed_sampler(leaky6.structure, 0.3, 4)
    r1 = ind_game(leaky6, samp, leak_reader(), 150, master_seed=93)
    r2 = ind_game(leaky6, samp, leak_reader(), 150, master_seed=93)
    assert serde.canonical_json_bytes(r1.to_json()) == serde.canonical_json_bytes(r2.to_json())


def test_games_refuse_infeasible_ground_truth():
    ham_big = hamiltonian_structure(11)  # 10! cycles through vertex 1, over the witness budget
    ctx = SchemeContext.create(ham_big, seed=94, backend="leaky")
    with pytest.raises(ValueError, match="inner-witness budget"):
        ind_game(ctx, fixed_sampler(S0, S1, PartySet.of(55, {1})),
                 constant_distinguisher(0), 100, master_seed=95)


@pytest.mark.parametrize("eps, n", [(0, 6), (-0.5, 6), (1.5, 6), (0.3, 5), (0.3, 7)])
def test_mest_and_dprime_refuse_bad_eps_or_n_before_drawing(leaky6, eps, n):
    rng = Stream(0x7E)
    coms = leaky6.a0_commitments(Stream(1))
    with pytest.raises(ValueError):
        mest(S0, S1, PartySet.full(6), eps, n, leaky6, leak_reader(), rng)
    with pytest.raises(ValueError):
        dprime(coms, eps, n, fixed_sampler(S0, S1, PartySet.full(6)), leak_reader(), leaky6, rng)
    assert rng.state == Stream(0x7E).state


@pytest.mark.parametrize("trials", [99, 0, -1])
def test_games_refuse_fewer_than_100_trials(leaky6, trials):
    samp = mixed_sampler(leaky6.structure, 0.3, 4)
    with pytest.raises(ValueError, match="100 trials"):
        ind_game(leaky6, samp, constant_distinguisher(0), trials, master_seed=1)
    with pytest.raises(ValueError, match="100 trials"):
        sem_game(leaky6, sem_view(samp), leak_learner(), guess_simulator(4), lambda s: s,
                 trials, master_seed=1)


def test_ind_game_refuses_unequal_length_secrets(leaky6):
    with pytest.raises(ValueError, match="equal-length"):
        ind_game(leaky6, fixed_sampler(b"AB", b"ABC", PartySet.of(6, {1})),
                 constant_distinguisher(0), 100, master_seed=1)


class Truthy:
    """A comparison result that is not a bool, as numpy's are."""

    def __init__(self, value):
        self.value = value

    def __bool__(self):
        return bool(self.value)


class Answer:
    """A non-int answer whose == returns a Truthy, as np.int64's does."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return Truthy(self.value == other)

    __hash__ = None


def test_games_run_every_trial_and_count_python_ints(leaky6):
    # D and the learner run on qualified trials too; a hit counts only when
    # M(X) = 0, and the counts stay ints whatever type the adversary answers in
    samp = mixed_sampler(leaky6.structure, 0.3, 4)
    calls = []

    def D(s0, s1, shares, sigma, rng):
        calls.append("D")
        return Answer(1)

    def learner(shares, sigma, rng):
        calls.append("learner")
        return Answer(7)

    def simulator(X, sigma, rng):
        calls.append("simulator")
        return Answer(7)

    ind = ind_game(leaky6, samp, D, 120, master_seed=5)
    assert calls == ["D"] * 240
    calls.clear()
    sem = sem_game(leaky6, sem_view(samp), learner, simulator, lambda s: 7, 120, master_seed=5)
    assert calls == ["learner", "simulator"] * 120
    for report in (ind, sem):
        assert 0 < report.extra["mx0_trials"] < 120
        assert report.count0 == report.count1 == report.extra["mx0_trials"]
        assert all(type(c) is int for c in (report.count0, report.count1,
                                            report.extra["mx0_trials"]))


def test_sem_game_constant_f_zero_gap(leaky6):
    samp = sem_view(mixed_sampler(leaky6.structure, 0.3, 4))

    def learner(shares, sigma, rng):
        return 7

    def simulator(X, sigma, rng):
        return 7

    report = sem_game(leaky6, samp, learner, simulator, lambda s: 7, 200, master_seed=96)
    assert report.advantage == 0.0


def test_dver_perfect_recovery_under_a0(leaky6):
    # Honest-value input commitments + leak reader: D recovers b always.
    X = PartySet.of(6, {1})
    hits = sum(
        dver(leaky6.a0_commitments(Stream(derive_seed(0x777, t))), S0, S1, X,
             leaky6, leak_reader(), Stream(derive_seed(0x778, t)))
        for t in range(100)
    )
    assert hits == 100


def test_sem_view_drops_s1_and_keeps_the_draws(leaky6):
    ind = mixed_sampler(leaky6.structure, 0.3, 4)
    sem = sem_view(ind)
    for t in range(50):
        rng_ind, rng_sem = Stream(derive_seed(0x5E, t)), Stream(derive_seed(0x5E, t))
        s0, _, X, sigma = ind(rng_ind)
        assert sem(rng_sem) == (s0, X, sigma)
        assert rng_sem.state == rng_ind.state


def test_sem_game_first_bit_gap(leaky6):
    # Learner reads the leak, f = first bit, simulator guesses:
    # gap ~ Pr[M(X)=0] / 2.
    samp = sem_view(mixed_sampler(leaky6.structure, 0.3, 1))

    f = dictator(0, 8)

    def learner(shares, sigma, rng):
        leaked = leak_message(shares[0].ciphertext) if shares else None
        return f(leaked) if leaked is not None else 0

    def simulator(X, sigma, rng):
        return rng.bit()

    report = sem_game(leaky6, samp, learner, simulator, f, 600, master_seed=0x779)
    p_unq = report.extra["mx0_trials"] / report.trials
    assert abs(report.advantage - p_unq / 2) <= 2 * report.radius


def test_sem_game_identical_procedures_null_gap(leaky6):
    # Learner and simulator draw from the same distribution (ignoring their
    # distinguishing inputs): the gap vanishes up to sampling noise.
    samp = sem_view(mixed_sampler(leaky6.structure, 0.3, 1))

    def learner(shares, sigma, rng):
        return rng.bit()

    def simulator(X, sigma, rng):
        return rng.bit()

    report = sem_game(leaky6, samp, learner, simulator, dictator(3, 8), 400,
                      master_seed=0x77A)
    assert report.advantage <= report.radius


GAP_RUNS = 25


def recording_leak_reader(log):
    """The leak reader, logging the instance and stream state of every call."""
    leak = leak_reader()

    def D(s0, s1, shares, sigma, rng):
        log.append((shares[0].ciphertext.instance_digest, rng.state))
        return leak(s0, s1, shares, sigma, rng)

    return D


@pytest.fixture(scope="module")
def leaky6_gap(leaky6):
    samp = mixed_sampler(leaky6.structure, 0.3, 4)
    log = []
    lanes = (0x100, 0x101, 0x102, 0x103)
    counts = dprime_gap(leaky6, 0.3, samp, recording_leak_reader(log), GAP_RUNS,
                        lambda t: tuple(derive_seed(lane, t) for lane in lanes))
    return counts, log


def test_dprime_gap_with_leaky_backend(leaky6_gap):
    (c0, c1), _ = leaky6_gap
    assert c0 / GAP_RUNS >= 0.9
    assert abs(c0 - c1) / GAP_RUNS >= 0.2


def test_dprime_gap_equals_hand_written_loop(leaky6, leaky6_gap):
    # the reference: D' on A0 lists, then D' on A1 lists, each run on the
    # seed lanes 0x100..0x103 (A0 list, D' on A0, A1 list, D' on A1).  The
    # counts alone are coarse (c0 is nearly always GAP_RUNS), so every call
    # of D is compared too; dprime_gap interleaves A0 and A1 runs, hence
    # the calls are compared as multisets.
    samp = mixed_sampler(leaky6.structure, 0.3, 4)
    log = []
    D = recording_leak_reader(log)
    c0 = sum(
        dprime(leaky6.a0_commitments(Stream(derive_seed(0x100, t))), 0.3, 6,
               samp, D, leaky6, Stream(derive_seed(0x101, t)))
        for t in range(GAP_RUNS)
    )
    c1 = sum(
        dprime(leaky6.a1_commitments(Stream(derive_seed(0x102, t))), 0.3, 6,
               samp, D, leaky6, Stream(derive_seed(0x103, t)))
        for t in range(GAP_RUNS)
    )
    counts, gap_log = leaky6_gap
    assert counts == (c0, c1)
    assert sorted(gap_log) == sorted(log)


# --- hybrid locator ---------------------------------------------------------


def test_hybrid_values_endpoints():
    assert hybrid_values(4, 0) == (1, 2, 3, 4)
    assert hybrid_values(4, 4) == (5, 6, 7, 8)
    assert hybrid_values(4, 1) == (1, 2, 3, 8)
    assert hybrid_values(4, 3) == (1, 6, 7, 8)


def test_hybrid_locates_planted_position():
    n, j, gap = 8, 3, 0.8
    loc = hybrid_locate(position_detector(j, gap, n), n, 300,
                        master_seed=12345, sample_source=transparent_sample_source)
    assert loc.index == n - j + 1
    assert abs(loc.gap - gap) <= 0.1
    assert (loc.value_x, loc.value_y) == (j, n + j)
    # the wrapped pairwise distinguisher separates the pair
    hits_x = sum(loc.distinguisher(loc.value_x, Stream(derive_seed(1, t))) for t in range(400))
    hits_y = sum(loc.distinguisher(loc.value_y, Stream(derive_seed(2, t))) for t in range(400))
    assert abs(hits_x - hits_y) / 400 >= gap / n - 0.05


def test_hybrid_constant_detector_flat():
    loc = hybrid_locate(lambda samples, rng: 1, 5, 200,
                        master_seed=7, sample_source=transparent_sample_source)
    assert loc.gap == 0.0
    assert all(g == 0.0 for g in loc.signed_gaps)


def test_hybrid_telescoping_identity():
    n = 6
    loc = hybrid_locate(position_detector(2, 0.6, n), n, 250,
                        master_seed=99, sample_source=transparent_sample_source)
    assert sum(loc.signed_gaps) == pytest.approx(loc.probs[0] - loc.probs[-1], abs=1e-12)


def test_hybrid_locate_report_and_distinguisher_are_golden():
    """SHA-256 over each location's report bytes and its pairwise
    distinguisher's answers on fixed streams.  The second source draws per
    sample and the second detector reads the whole list, so the answers pin
    the pairwise list's values, their order and the draws made for them."""
    def drawing_source(value, rng):
        return (value, rng.bits(8))

    def list_hash_detector(samples, rng):
        return hashlib.sha256(repr((samples, rng.bits(8))).encode()).digest()[0] & 1

    digest = hashlib.sha256()
    for n, list_D, source in (
        (8, position_detector(3, 0.8, 8), transparent_sample_source),
        (6, list_hash_detector, drawing_source),
    ):
        loc = hybrid_locate(list_D, n, 120, master_seed=0x4B1D, sample_source=source)
        digest.update(serde.canonical_json_bytes(loc.to_json()))
        for value in (loc.value_x, loc.value_y):
            samples = [source(value, Stream(derive_seed(value, t))) for t in range(100)]
            digest.update(bytes(loc.distinguisher(s, Stream(derive_seed(0xD15, t)))
                                for t, s in enumerate(samples)))
    assert digest.hexdigest() == (
        "25338d50941ee877244fb474d2625ac28cc2e8379b11dca323d0e7e36abb6955")


# --- definition equivalences ------------------------------------------------


def test_sem_to_ind_constant_case(leaky6):
    samp = sem_view(mixed_sampler(leaky6.structure, 0.3, 4))

    samp2, D2 = sem_to_ind(samp, lambda shares, sigma, rng: 3, lambda s: 3)
    # learner output always equals f(S1): D2 is constant 1, advantage 0
    report = ind_game(leaky6, samp2, D2, 200, master_seed=97)
    assert report.count0 == report.count1 == report.extra["mx0_trials"]
    assert report.advantage == 0.0


def test_sem_to_ind_preserves_leak_advantage(leaky6):
    samp = sem_view(mixed_sampler(leaky6.structure, 0.3, 1))

    identity = lambda s: s
    sem_report = sem_game(leaky6, samp, leak_learner(), guess_simulator(1),
                          identity, 400, master_seed=98)
    samp2, D2 = sem_to_ind(samp, leak_learner(), identity)
    ind_report = ind_game(leaky6, samp2, D2, 400, master_seed=98)
    assert abs(sem_report.advantage - ind_report.advantage) <= 0.1


def test_ind_to_sem_dictators():
    samp = fixed_sampler(b"\x00", b"\x01", PartySet.of(6, {1}))
    transformed = ind_to_sem(samp, leak_reader(), t=8)
    assert transformed.dictators == (0,)
    f0 = dictator(0, 8)
    assert f0(b"\x00") == 0 and f0(b"\x01") == 1
    same = ind_to_sem(fixed_sampler(b"\x05", b"\x05", PartySet.of(6, {1})),
                      leak_reader(), t=8)
    assert same.dictators == ()  # reported explicitly as empty


def test_dictator_diff_examples():
    assert dictator_diff(b"\x00", b"\x01", 8) == (0,)
    assert dictator_diff(b"\x00", b"\xa5", 8) == (0, 2, 5, 7)
    assert dictator_diff(b"\x07", b"\x07", 8) == ()


def test_ind_to_sem_baseline_simulator_half():
    samp = fixed_sampler(b"\x00", b"\xa5", PartySet.of(6, {1}))
    transformed = ind_to_sem(samp, leak_reader(), t=8)
    for bit in transformed.dictators:
        f = dictator(bit, 8)
        hits = 0
        trials = 800
        for t in range(trials):
            rng = Stream(derive_seed(0x1000 + bit, t))
            s_b, X, sigma2 = transformed.sampler(rng)
            hits += transformed.simulator(X, sigma2, rng) == f(s_b)
        assert abs(hits / trials - 0.5) <= 0.05


def test_ind_to_sem_learner_tracks_distinguisher(leaky6):
    # with the leaky backend the learner's dictator guess follows D's success
    samp = mixed_sampler(leaky6.structure, 0.5, 1)
    transformed = ind_to_sem(samp, leak_reader(), t=8, probe_seed=3)
    f = dictator(0, 8)
    learner = transformed.learner(f)
    hits = trials = 0
    for t in range(300):
        rng = Stream(derive_seed(0x2000, t))
        s_b, X, sigma2 = transformed.sampler(rng)
        if qualified(leaky6.structure, X):
            continue
        dealing = leaky6.deal(s_b, rng)
        trials += 1
        hits += learner(shares_of(dealing, X), sigma2, rng) == f(s_b)
    assert trials > 50
    assert hits / trials >= 0.95  # leak makes the emulated D always right
