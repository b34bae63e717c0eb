"""Access structures: verifiers, decisions, monotonicity."""

import hashlib
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from npshare.structures import (
    AccessStructure,
    MonotoneCircuit,
    PartySet,
    SAMPLED_MAX_BITS,
    WITNESS_BUDGET,
    check_monotone,
    check_monotone_fn,
    check_witness_budget,
    circuit_structure,
    edge_index,
    edge_slots,
    evaluate,
    hamiltonian_structure,
    inner_witnesses,
    matching_structure,
    party_edge,
    threshold_structure,
    verify,
)


def edges_of(v, pairs):
    return PartySet.of(v * (v - 1) // 2, {edge_index(v, a, b) for a, b in pairs})


CYCLE4 = edges_of(4, [(1, 2), (2, 3), (3, 4), (4, 1)])


def test_edge_numbering_lexicographic():
    assert edge_slots(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert edge_index(4, 1, 2) == 1
    assert edge_index(4, 3, 4) == 6
    assert edge_index(4, 4, 3) == 6  # unordered
    for p in range(1, 7):
        assert edge_index(4, *party_edge(4, p)) == p


def test_threshold_evaluate():
    st_ = threshold_structure(3, 2)
    assert evaluate(st_, PartySet.of(3, {1, 3})) is True
    assert evaluate(st_, PartySet.of(3, {2})) is False


def brute_force_hamiltonian(v, X):
    """Independent oracle: try every cyclic vertex order."""
    for perm in permutations(range(1, v + 1)):
        if all(edge_index(v, perm[i], perm[(i + 1) % v]) in X for i in range(v)):
            return True
    return False


def test_hamiltonian_evaluate_against_brute_force():
    ham = hamiltonian_structure(4)
    assert evaluate(ham, CYCLE4, expensive=True) is True
    assert brute_force_hamiltonian(4, CYCLE4) is True
    # all 3 distinct 4-vertex cycles agree with the evaluator
    rng_sets = [
        edges_of(4, [(1, 2), (2, 3), (3, 4)]),                   # path: no
        edges_of(4, [(1, 3), (3, 2), (2, 4), (4, 1)]),           # another cycle: yes
        PartySet.of(6, set(range(1, 7))),                        # K4: yes
        PartySet.empty(6),
    ]
    for X in rng_sets:
        assert evaluate(ham, X, expensive=True) == brute_force_hamiltonian(4, X)


def test_evaluate_requires_expensive_flag():
    ham = hamiltonian_structure(4)
    with pytest.raises(ValueError):
        evaluate(ham, CYCLE4)


def test_hamiltonian_verify():
    ham = hamiltonian_structure(4)
    assert verify(ham, CYCLE4, (1, 2, 3, 4)) is True
    missing = edges_of(4, [(1, 2), (2, 3), (3, 4)])  # closing edge absent
    assert verify(ham, missing, (1, 2, 3, 4)) is False
    assert verify(ham, CYCLE4, (1, 2, 3)) is False        # wrong length
    assert verify(ham, CYCLE4, (1, 2, 2, 4)) is False     # repeated vertex
    assert verify(ham, CYCLE4, (2, 3, 4, 1)) is True      # rotation is fine


def test_matching_verify():
    mt = matching_structure(4)
    X = edges_of(4, [(1, 2), (3, 4)])
    assert verify(mt, X, ((1, 2), (3, 4))) is True
    assert verify(mt, X, ((1, 2),)) is False              # vertex 3,4 uncovered
    assert verify(mt, X, ((1, 2), (2, 3))) is False       # reuse + not in X
    assert verify(mt, X, ((2, 1), (4, 3))) is True        # unordered pairs


def test_verify_total_on_garbage():
    ham = hamiltonian_structure(4)
    mt = matching_structure(4)
    st_ = threshold_structure(3, 2)
    garbage = [b"\x00\xff", "nonsense", 17, (("a", "b"),), ((1,),), None, [[]]]
    for w in garbage:
        assert verify(ham, CYCLE4, w) in (True, False)
        assert verify(mt, CYCLE4, w) in (True, False)
        assert verify(st_, PartySet.of(3, {1, 2}), w) in (True, False)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=16))
def test_verify_total_on_arbitrary_bytes(data):
    ham = hamiltonian_structure(4)
    assert verify(ham, CYCLE4, data) in (True, False)


def test_monotone_circuit_structure():
    # (x1 and x2) or (x3 and not w): negation allowed on the free input only
    circ = MonotoneCircuit(
        n_std=3, n_free=1,
        gates=(("and", 0, 1), ("not", 3), ("and", 2, 5), ("or", 4, 6)),
        output=7,
    )
    structure = circuit_structure(circ)
    assert verify(structure, PartySet.of(3, {1, 2}), (0,)) is True
    assert verify(structure, PartySet.of(3, {3}), (0,)) is True
    assert verify(structure, PartySet.of(3, {3}), (1,)) is False
    assert evaluate(structure, PartySet.of(3, {3}), expensive=True) is True
    assert evaluate(structure, PartySet.of(3, set()), expensive=True) is False


def test_monotone_circuit_rejects_negated_standard_input():
    with pytest.raises(ValueError):
        MonotoneCircuit(n_std=2, n_free=0, gates=(("not", 0),), output=2)


def test_monotone_circuit_reads_taint_from_wire_indices():
    """A huge party count allocates nothing per party; negation is still refused
    on a standard input and on a gate that reads one."""
    n = 10**20
    MonotoneCircuit(n_std=n, n_free=1, gates=(("not", n), ("and", 0, n + 1)), output=n + 2)
    for gates in ((("not", n - 1),), (("or", 0, n), ("not", n + 1))):
        with pytest.raises(ValueError, match="negation"):
            MonotoneCircuit(n_std=n, n_free=1, gates=gates, output=n + 1)


def test_check_monotone_shipped_structures():
    assert check_monotone(threshold_structure(4, 2)) is True
    assert check_monotone(hamiltonian_structure(4)) is True
    assert check_monotone(hamiltonian_structure(5)) is True  # n = 10 <= 12
    assert check_monotone(matching_structure(4)) is True
    circ = MonotoneCircuit(
        n_std=3, n_free=1,
        gates=(("and", 0, 1), ("not", 3), ("and", 2, 5), ("or", 4, 6)),
        output=7,
    )
    assert check_monotone(circuit_structure(circ)) is True


def test_check_monotone_planted_violation():
    def broken(members):
        return members == frozenset({1})  # M({1})=1 but M({1,2})=0

    assert check_monotone_fn(3, broken, mode="exhaustive") is False
    assert check_monotone_fn(3, broken, mode="sampled", trials=500, rng_seed=1) is False


def test_check_monotone_queries_are_pinned():
    # the subsets each mode hands the predicate, in order; the sampled mode
    # draws y before it asks about x, so a failed x still consumes y's words
    seen = []

    def at_least_3(members):
        seen.append(tuple(sorted(members)))
        return len(members) >= 3

    assert check_monotone_fn(4, at_least_3, mode="exhaustive") is True
    assert seen == [tuple(i + 1 for i in range(4) if (p >> i) & 1) for p in range(16)]
    seen.clear()
    assert check_monotone_fn(5, at_least_3, mode="sampled", trials=50, rng_seed=3) is True
    assert len(seen) == 73
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == (
        "a1ae7f6d4e9287f9ffa37192dab26d2cbec904bb64544ad8b8a670673ecb74a7")


def test_check_monotone_sampled_mode():
    assert check_monotone(threshold_structure(6, 3), mode="sampled", trials=300) is True


def test_check_monotone_sampled_is_bounded_by_n_times_trials():
    assert SAMPLED_MAX_BITS == 10**6
    assert check_monotone_fn(1000, lambda members: True, mode="sampled", trials=1000) is True
    with pytest.raises(ValueError, match=r"n \* trials <= 1000000, got 1001000"):
        check_monotone_fn(1001, lambda members: True, mode="sampled", trials=1000)


@pytest.mark.parametrize("trials", [0, -5])
def test_check_monotone_sampled_refuses_no_trials(trials):
    # a sampled check of zero pairs would report "monotone" having checked nothing
    with pytest.raises(ValueError, match="trials >= 1"):
        check_monotone(threshold_structure(3, 2), mode="sampled", trials=trials)
    assert check_monotone(threshold_structure(3, 2), mode="exhaustive", trials=trials) is True


def test_check_monotone_exhaustive_bound():
    with pytest.raises(ValueError):
        check_monotone(threshold_structure(13, 2), mode="exhaustive")


def test_check_monotone_refuses_one_witness_past_the_budget():
    """A check's evaluations times each one's inner witnesses may reach the
    budget but not pass it; the check refuses before it evaluates anything."""
    assert WITNESS_BUDGET == 10**6
    one_witness = threshold_structure(1, 1)
    check_witness_budget(one_witness, 10**6)
    with pytest.raises(ValueError, match="inner-witness budget"):
        check_witness_budget(one_witness, 10**6 + 1)
    free6 = circuit_structure(MonotoneCircuit(n_std=2, n_free=6, gates=(), output=0))
    check_witness_budget(free6, 15_625)  # * 2^6 = 10^6
    with pytest.raises(ValueError, match="inner-witness budget"):
        check_witness_budget(free6, 15_626)
    # sampled mode evaluates 2 * trials party sets: 1,000,002 and 1,000,064 witnesses
    for structure, trials in ((one_witness, 500_001), (free6, 7_813)):
        with pytest.raises(ValueError, match=f"{2 * trials} evaluation"):
            check_monotone(structure, mode="sampled", trials=trials)


@pytest.mark.parametrize("v", [4, 5])
def test_verifier_soundness_toy_scale(v):
    """Some witness verifies  <=>  exhaustive evaluation accepts (all subsets)."""
    for structure in (hamiltonian_structure(v), matching_structure(v)):
        n = structure.n
        for packed in range(1 << n):
            X = PartySet.of(n, {i + 1 for i in range(n) if (packed >> i) & 1})
            has_witness = any(
                verify(structure, X, w) for w in inner_witnesses(structure, X)
            )
            assert has_witness == evaluate(structure, X, expensive=True)


def test_structure_json_round_trip():
    for structure in (
        threshold_structure(5, 3),
        hamiltonian_structure(4),
        matching_structure(4),
        circuit_structure(
            MonotoneCircuit(n_std=2, n_free=1, gates=(("and", 0, 1),), output=3)
        ),
    ):
        assert AccessStructure.from_json(structure.to_json()) == structure


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        evaluate(threshold_structure(3, 2), PartySet.of(4, {1}))
    with pytest.raises(ValueError):
        verify(threshold_structure(3, 2), PartySet.of(4, {1}), None)


def test_party_set_validation():
    with pytest.raises(ValueError):
        PartySet.of(3, {0})
    with pytest.raises(ValueError):
        PartySet.of(3, {4})
    assert PartySet.of(3, {2, 1}).sorted() == (1, 2)
    assert PartySet.full(3).char_bits() == (1, 1, 1)
