"""Acceptance suite.

One test per criterion, each delegating to a pure function of the master
seed that returns a JSON-able report.  The final criterion reruns every
report-producing function and demands byte-identical serializations.
Every tolerance is pinned here; timing budgets are asserted on the first
run of each criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines and timings.
"""

import time

from npshare import serde
from npshare.circuits import compile_mprime
from npshare.cnf import tseitin
from npshare.commitments import commit, crs_gen, sample_opening, supports_disjoint
from npshare.harness import (
    SchemeContext,
    dictator,
    dprime_gap,
    hybrid_locate,
    ind_game,
    ind_to_sem,
    sem_game,
    sem_to_ind,
    sem_view,
    fixed_sampler,
    guess_simulator,
    leak_learner,
    leak_reader,
    mest,
    mixed_sampler,
    planted_bias_distinguisher,
    position_detector,
    transparent_sample_source,
)
from npshare.induced import MPrimeInstance, exhaustive_witness_search
from npshare.rng import Stream, derive_seed
from npshare.sat import solve_cnf
from npshare.scheme import recon, setup, shares_of
from npshare.structures import (
    MonotoneCircuit,
    PartySet,
    circuit_structure,
    edge_index,
    evaluate,
    hamiltonian_structure,
    inner_witnesses,
    matching_structure,
    threshold_structure,
)

MASTER_SEED = 0x20260810

_first_runs: dict = {}


def _record(name, fn):
    """Run a criterion once, remember (report, elapsed) for reuse."""
    if name not in _first_runs:
        start = time.perf_counter()
        report = fn(MASTER_SEED)
        _first_runs[name] = (report, time.perf_counter() - start)
    return _first_runs[name]


def _announce(num, report, elapsed, budget=None):
    verdict = "PASS" if report["passed"] else "FAIL"
    line = f"ACCEPTANCE {num}: {verdict} ({elapsed:.1f}s)"
    if budget is not None:
        line += f" [budget {budget}s]"
    print(line)


# --- criterion 1: completeness ---------------------------------------------

CIRCUIT5 = circuit_structure(
    MonotoneCircuit(
        n_std=5, n_free=1,
        gates=(
            ("not", 5),                  # 6 = not w
            ("and", 0, 1),               # 7 = x1 & x2
            ("and", 7, 5),               # 8 = x1 & x2 & w
            ("and", 2, 3),               # 9 = x3 & x4
            ("and", 9, 4),               # 10 = x3 & x4 & x5
            ("and", 10, 6),              # 11 = ... & not w
            ("or", 8, 11),
        ),
        output=12,
    )
)


def _qualified_case(kind, rng):
    """A structure, a qualified set, and a valid witness for it."""
    if kind == "threshold":
        n = 2 + rng.randrange(7)              # 2..8
        t = 1 + rng.randrange(n)
        structure = threshold_structure(n, t)
        size = t + rng.randrange(n - t + 1)
        members = set()
        while len(members) < size:
            members.add(1 + rng.randrange(n))
        return structure, PartySet.of(n, members), None
    if kind == "hamiltonian":
        v = 4 + rng.randrange(2)              # 4 or 5
        structure = hamiltonian_structure(v)
        perm = list(range(1, v + 1))
        for i in range(v - 1, 0, -1):         # Fisher-Yates
            j = rng.randrange(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        edges = {edge_index(v, perm[i], perm[(i + 1) % v]) for i in range(v)}
        extras = {1 + rng.randrange(structure.n) for _ in range(rng.randrange(3))}
        return structure, PartySet.of(structure.n, edges | extras), tuple(perm)
    if kind == "matching":
        structure = matching_structure(4)
        matchings = (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))
        m = matchings[rng.randrange(3)]
        edges = {edge_index(4, a, b) for a, b in m}
        extras = {1 + rng.randrange(6) for _ in range(rng.randrange(2))}
        return structure, PartySet.of(6, edges | extras), m
    # monotone circuit: one of the two branches
    if rng.bit():
        base, witness = {1, 2}, (1,)
    else:
        base, witness = {3, 4, 5}, (0,)
    extras = {1 + rng.randrange(5) for _ in range(rng.randrange(2))}
    return CIRCUIT5, PartySet.of(5, base | extras), witness


def criterion_1(seed):
    kinds = ("threshold", "monotone-circuit", "hamiltonian", "matching")
    results = {}
    for kind_idx, kind in enumerate(kinds):
        for backend_idx, backend in enumerate(("idealized", "cnf")):
            good = 0
            for trial in range(100):
                lane = 0x111000 + (2 * kind_idx + backend_idx) * 1000
                rng = Stream(derive_seed(seed, lane + trial))
                structure, X, witness = _qualified_case(kind, rng)
                secret = rng.bytes(1 + rng.randrange(16))
                dealing = setup(structure, secret, rng, backend=backend, k=8)
                if recon(shares_of(dealing, X), X, witness) == secret:
                    good += 1
            results[f"{kind}/{backend}"] = good
    return {
        "criterion": 1,
        "reconstructions": results,
        "passed": all(v == 100 for v in results.values()),
    }


def test_criterion_1_completeness():
    report, elapsed = _record("c1", criterion_1)
    _announce(1, report, elapsed, budget=30)
    assert report["passed"], report
    assert elapsed < 30


# --- criterion 2: no-witness soundness --------------------------------------


def _unqualified_case(kind, rng):
    if kind == "threshold":
        n = 3 + rng.randrange(4)              # 3..6
        t = 2 + rng.randrange(n - 1)          # 2..n
        structure = threshold_structure(n, t)
        size = rng.randrange(t)               # 0..t-1
        members = set()
        while len(members) < size:
            members.add(1 + rng.randrange(n))
        return structure, PartySet.of(n, members)
    structure = hamiltonian_structure(4) if kind == "hamiltonian" else matching_structure(4)
    while True:
        X = PartySet.of(6, {i + 1 for i in range(6) if rng.bit()})
        if not evaluate(structure, X, expensive=True):
            return structure, X


def criterion_2(seed):
    cases = ["threshold"] * 20 + ["hamiltonian"] * 15 + ["matching"] * 15
    search_none = cnf_unsat = 0
    for trial, kind in enumerate(cases):
        rng = Stream(derive_seed(seed, 0x222000 + trial))
        structure, X = _unqualified_case(kind, rng)
        n = structure.n
        crs = crs_gen(n, 8, rng, expansion="toy")
        coms = tuple(
            commit(i if i in X else n + i, sample_opening(crs, rng), crs)
            for i in range(1, n + 1)
        )
        inst = MPrimeInstance(crs=crs, commitments=coms, structure=structure)
        if exhaustive_witness_search(inst) is None:
            search_none += 1
        if solve_cnf(tseitin(compile_mprime(inst)), max_conflicts=2_000_000) is None:
            cnf_unsat += 1
    return {
        "criterion": 2,
        "instances": len(cases),
        "search_none": search_none,
        "cnf_unsat": cnf_unsat,
        "passed": search_none == 50 and cnf_unsat == 50,
    }


def test_criterion_2_no_witness_soundness():
    report, elapsed = _record("c2", criterion_2)
    _announce(2, report, elapsed, budget=60)
    assert report["passed"], report
    assert elapsed < 60


# --- criterion 3: mest calibration ------------------------------------------


def criterion_3(seed):
    eps, n = 0.3, 10
    structure = threshold_structure(n, 5)
    ctx = SchemeContext.create(structure, seed=derive_seed(seed, 0x333), backend="leaky")
    X = PartySet.of(n, {1, 2, 3, 4, 5})   # qualified: both mest branches leak
    s0, s1 = b"\x00" * 4, b"\xff" * 4
    counts = {}
    for label, beta, base in (("strong", 0.2, 0x333100), ("weak", 0.03, 0x333200)):
        D = planted_bias_distinguisher(beta, probe_party=7, crs=ctx.crs)
        fired = sum(
            mest(s0, s1, X, eps, n, ctx, D, Stream(derive_seed(seed, base + run)))
            for run in range(100)
        )
        counts[label] = fired
    return {
        "criterion": 3,
        "epsilon": eps,
        "n": n,
        "fired_strong": counts["strong"],   # planted bias 0.2  >= eps/3
        "fired_weak": counts["weak"],       # planted bias 0.03 == eps/10
        "passed": counts["strong"] >= 95 and counts["weak"] <= 5,
    }


def test_criterion_3_mest_calibration():
    report, elapsed = _record("c3", criterion_3)
    _announce(3, report, elapsed, budget=60)
    assert report["passed"], report
    assert elapsed < 60


# --- criterion 4: end-to-end reduction --------------------------------------


def criterion_4(seed):
    eps, n, runs = 0.3, 6, 200
    structure = threshold_structure(n, 2)
    ctx = SchemeContext.create(structure, seed=derive_seed(seed, 0x444), backend="leaky")
    sampler = mixed_sampler(structure, 0.3, 4)
    D = leak_reader()
    c0, c1 = dprime_gap(ctx, eps, sampler, D, runs, lambda run: tuple(
        derive_seed(seed, lane + run) for lane in (0x444100, 0x444200, 0x444300, 0x444400)))
    gap = abs(c0 - c1) / runs
    return {
        "criterion": 4,
        "runs": runs,
        "accept_a0": c0 / runs,
        "accept_a1": c1 / runs,
        "gap": gap,
        "threshold": 0.03,                    # eps/10 exactly
        "passed": gap >= 0.03,
    }


def test_criterion_4_end_to_end_reduction():
    report, elapsed = _record("c4", criterion_4)
    _announce(4, report, elapsed, budget=300)
    assert report["passed"], report
    assert elapsed < 300


# --- criterion 5: hybrid lemma ----------------------------------------------


def criterion_5(seed):
    n, j, gap = 8, 3, 0.8
    detector = position_detector(j, gap, n)
    loc = hybrid_locate(detector, n, 400, master_seed=derive_seed(seed, 0x555),
                        sample_source=transparent_sample_source)
    confirm = hybrid_locate(detector, n, 400, master_seed=derive_seed(seed, 0x556),
                            sample_source=transparent_sample_source)
    # direct estimate of the returned pairwise distinguisher's gap
    trials = 400
    hits_x = sum(
        loc.distinguisher(loc.value_x, Stream(derive_seed(seed, 0x557000 + t)))
        for t in range(trials)
    )
    hits_y = sum(
        loc.distinguisher(loc.value_y, Stream(derive_seed(seed, 0x558000 + t)))
        for t in range(trials)
    )
    pair_gap = abs(hits_x - hits_y) / trials
    bound = gap / n - 0.05
    return {
        "criterion": 5,
        "located_index": loc.index,
        "located_gap": loc.gap,
        "brute_force_index": confirm.index,
        "pairwise_gap": pair_gap,
        "bound": bound,
        "passed": (
            loc.gap >= bound and pair_gap >= bound and confirm.index == loc.index
        ),
    }


def test_criterion_5_hybrid_lemma():
    report, elapsed = _record("c5", criterion_5)
    _announce(5, report, elapsed, budget=60)
    assert report["passed"], report
    assert elapsed < 60


# --- criterion 6: definition equivalence ------------------------------------


def criterion_6(seed):
    structure = threshold_structure(6, 2)
    ctx = SchemeContext.create(structure, seed=derive_seed(seed, 0x666), backend="leaky")
    sampler_sem = sem_view(mixed_sampler(structure, 0.3, 1))
    identity = lambda s: s
    sem_report = sem_game(ctx, sampler_sem, leak_learner(), guess_simulator(1),
                          identity, 1000, master_seed=derive_seed(seed, 0x666100))
    samp2, d2 = sem_to_ind(sampler_sem, leak_learner(), identity)
    ind_report = ind_game(ctx, samp2, d2, 1000, master_seed=derive_seed(seed, 0x666200))
    sem_vs_ind = abs(sem_report.advantage - ind_report.advantage)

    transformed = ind_to_sem(
        fixed_sampler(b"\x00", b"\xa5", PartySet.of(6, {1})), leak_reader(), t=8
    )
    baseline = {}
    for bit in transformed.dictators:
        f = dictator(bit, 8)
        hits = 0
        trials = 1000
        for t in range(trials):
            rng = Stream(derive_seed(seed, 0x667000 + 1000 * bit + t))
            s_b, X, sigma2 = transformed.sampler(rng)
            hits += transformed.simulator(X, sigma2, rng) == f(s_b)
        baseline[str(bit)] = hits / trials
    baseline_ok = all(abs(v - 0.5) <= 0.05 for v in baseline.values())
    return {
        "criterion": 6,
        "sem_gap": sem_report.advantage,
        "ind_advantage": ind_report.advantage,
        "difference": sem_vs_ind,
        "dictators": list(transformed.dictators),
        "baseline_success": baseline,
        "passed": sem_vs_ind <= 0.1 and bool(transformed.dictators) and baseline_ok,
    }


def test_criterion_6_definition_equivalence():
    report, elapsed = _record("c6", criterion_6)
    _announce(6, report, elapsed)
    assert report["passed"], report


# --- criterion 7: commitment binding ----------------------------------------


def criterion_7(seed):
    n, k, draws = 4, 8, 100
    good = 0
    for draw in range(draws):
        crs = crs_gen(n, k, Stream(derive_seed(seed, 0x777000 + draw)))
        if all(
            supports_disjoint(crs, v1, v2)
            for v1 in range(1, 2 * n + 1)
            for v2 in range(v1 + 1, 2 * n + 1)
        ):
            good += 1
    return {
        "criterion": 7,
        "draws": draws,
        "all_pairs_disjoint": good,
        "passed": good >= 99,
    }


def test_criterion_7_commitment_binding():
    report, elapsed = _record("c7", criterion_7)
    _announce(7, report, elapsed, budget=60)
    assert report["passed"], report
    assert elapsed < 60


# --- criterion 8: reduction-path equivalence --------------------------------


def _sweep_structures():
    out = []
    for n in range(2, 5):
        for t in range(1, n + 1):
            out.append(threshold_structure(n, t))
    out.append(hamiltonian_structure(3))
    return out


def criterion_8(seed):
    sweep_ok = True
    sweep_cases = 0
    for structure in _sweep_structures():
        n = structure.n
        for packed in range(1, 1 << n):
            X = PartySet.of(n, {i + 1 for i in range(n) if (packed >> i) & 1})
            witness = next(iter(inner_witnesses(structure, X)), "none")
            if witness == "none":
                continue
            sweep_cases += 1
            secret = bytes([packed & 0xFF or 1, n])
            seed_here = derive_seed(seed, 0x888000 + 64 * n + packed)
            for backend in ("idealized", "cnf"):
                dealing = setup(structure, secret, Stream(seed_here), backend=backend, k=8)
                if recon(shares_of(dealing, X), X, witness) != secret:
                    sweep_ok = False

    agree = 0
    for trial in range(500):
        rng = Stream(derive_seed(seed, 0x889000 + trial))
        n = 2 + rng.randrange(2)
        structure = threshold_structure(n, 1 + rng.randrange(n))
        k = 4 + rng.randrange(3)
        crs = crs_gen(n, k, rng, expansion="toy")
        coms = []
        for i in range(1, n + 1):
            kind = rng.randrange(3)
            if kind == 0:
                coms.append(commit(i, sample_opening(crs, rng), crs))
            elif kind == 1:
                coms.append(commit(n + i, sample_opening(crs, rng), crs))
            else:
                from npshare.commitments import Commitment

                coms.append(Commitment(rng.bits(crs.total_bits)))
        inst = MPrimeInstance(crs=crs, commitments=tuple(coms), structure=structure)
        has_witness = exhaustive_witness_search(inst) is not None
        sat = solve_cnf(tseitin(compile_mprime(inst)), max_conflicts=2_000_000) is not None
        agree += has_witness == sat
    return {
        "criterion": 8,
        "sweep_cases": sweep_cases,
        "sweep_ok": sweep_ok,
        "oracle_agreement": agree,
        "passed": sweep_ok and agree == 500,
    }


def test_criterion_8_reduction_path_equivalence():
    report, elapsed = _record("c8", criterion_8)
    _announce(8, report, elapsed)
    assert report["passed"], report


# --- criterion 9: reproducibility -------------------------------------------

CRITERIA = {
    "c1": criterion_1,
    "c2": criterion_2,
    "c3": criterion_3,
    "c4": criterion_4,
    "c5": criterion_5,
    "c6": criterion_6,
    "c7": criterion_7,
    "c8": criterion_8,
}


def test_criterion_9_reproducibility():
    start = time.perf_counter()
    mismatches = []
    for name, fn in CRITERIA.items():
        first, _ = _record(name, fn)
        again = fn(MASTER_SEED)
        if serde.canonical_json_bytes(first) != serde.canonical_json_bytes(again):
            mismatches.append(name)
    report = {"criterion": 9, "mismatches": mismatches, "passed": not mismatches}
    _announce(9, report, time.perf_counter() - start)
    assert report["passed"], report
