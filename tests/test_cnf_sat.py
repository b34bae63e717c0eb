"""Tseitin encoding and the SAT oracles."""

import gc
import hashlib
import subprocess
import sys
import tracemalloc
from heapq import heappop, heappush
from itertools import combinations
from pathlib import Path

import pytest

from npshare import sat
from npshare.circuits import BooleanCircuit, Builder, compile_mprime, eval_wires
from npshare.cnf import CNF, check_assignment, dimacs, tseitin
from npshare.commitments import commit, crs_gen, sample_opening
from npshare.induced import MPrimeInstance, exhaustive_witness_search
from npshare.rng import Stream, derive_seed
from npshare.sat import BudgetExceeded, enumerate_sat, solve_cnf
from npshare.structures import (
    MonotoneCircuit,
    PartySet,
    circuit_structure,
    edge_index,
    hamiltonian_structure,
    matching_structure,
    threshold_structure,
)


def test_single_and_gate_clause_count():
    bd = Builder(2)
    out = bd.and_(0, 1)
    cnf = tseitin(bd.finish(out))
    assert cnf.num_vars == 3  # inputs + one gate
    assert len(cnf.clauses) == 4  # 3 gate clauses + 1 output unit


def test_var_count_inputs_plus_gates():
    bd = Builder(3)
    out = bd.or_(bd.and_(0, 1), bd.xor(1, 2))
    circuit = bd.finish(out)
    cnf = tseitin(circuit)
    assert cnf.num_vars == circuit.n_inputs + len(circuit.gates)


def test_not_and_xor_clause_counts():
    bd = Builder(2)
    n = bd.not_(0)
    cnf_not = tseitin(bd.finish(n))
    assert len(cnf_not.clauses) == 3  # 2 + unit
    bd2 = Builder(2)
    x = bd2.xor(0, 1)
    cnf_xor = tseitin(bd2.finish(x))
    assert len(cnf_xor.clauses) == 5  # 4 + unit


def random_circuit(rng, n_inputs, n_gates):
    bd = Builder(n_inputs)
    wires = list(range(n_inputs))
    ops = ("and", "or", "xor", "not")
    for _ in range(n_gates):
        op = ops[rng.randrange(4)]
        a = wires[rng.randrange(len(wires))]
        if op == "not":
            w = bd.not_(a)
        else:
            b = wires[rng.randrange(len(wires))]
            w = getattr(bd, "xor" if op == "xor" else op + "_")(a, b)
        if not isinstance(w, bool):
            wires.append(w)
    return bd.finish(wires[-1])


def test_tseitin_models_project_to_circuit_inputs():
    # brute force both sides for circuits with <= 10 inputs
    for trial in range(25):
        rng = Stream(derive_seed(0x7531, trial))
        circuit = random_circuit(rng, 4 + rng.randrange(3), 6)
        if isinstance(circuit.output, bool):
            continue
        cnf = tseitin(circuit)
        accepted = set()
        for packed in range(1 << circuit.n_inputs):
            inputs = [(packed >> i) & 1 for i in range(circuit.n_inputs)]
            if eval_wires(circuit, inputs)[circuit.output]:
                accepted.add(packed)
        projected = set()
        if cnf.num_vars <= 20:
            # enumerate *all* CNF models and project
            for packed in range(1 << cnf.num_vars):
                assignment = [bool((packed >> i) & 1) for i in range(cnf.num_vars)]
                if check_assignment(cnf, assignment):
                    projected.add(
                        sum(1 << i for i in range(circuit.n_inputs) if assignment[i])
                    )
            assert projected == accepted


def reference_tseitin(circuit):
    """A plain per-gate encoder that ``tseitin`` must match clause for clause."""
    if isinstance(circuit.output, bool):
        clauses = [] if circuit.output else [(1,), (-1,)]
        return CNF(max(circuit.n_inputs, 1), clauses)
    clauses = []
    base = circuit.n_inputs
    for idx, gate in enumerate(circuit.gates):
        g = base + idx + 1
        op = gate[0]
        a = gate[1] + 1
        if op == "not":
            clauses += ((g, a), (-g, -a))
            continue
        b = gate[2] + 1
        if op == "and":
            clauses += ((-g, a), (-g, b), (g, -a, -b))
        elif op == "or":
            clauses += ((g, -a), (g, -b), (-g, a, b))
        else:  # xor
            clauses += ((-g, a, b), (-g, -a, -b), (g, -a, b), (g, a, -b))
    clauses.append((circuit.output + 1,))
    return CNF(base + len(circuit.gates), clauses)


def assert_same_encoding(circuit):
    got, want = tseitin(circuit), reference_tseitin(circuit)
    assert got.num_vars == want.num_vars
    assert got.clauses == want.clauses


def folded_circuits():
    """Circuits with gates whose output folds to True and to False."""
    bd = Builder(3)
    x = bd.and_(0, 1)
    yield bd.finish(bd.or_(x, bd.not_(x)))      # True
    bd = Builder(3)
    x = bd.xor(bd.or_(0, 2), 1)
    yield bd.finish(bd.xor(x, x))               # False
    yield Builder(0).finish(False)


def test_tseitin_equals_reference_on_random_circuits():
    ops = set()
    for trial in range(200):
        rng = Stream(derive_seed(0x75E2, trial))
        circuit = random_circuit(rng, 1 + rng.randrange(8), rng.randrange(40))
        ops.update(gate[0] for gate in circuit.gates)
        assert_same_encoding(circuit)
    assert ops == {"and", "or", "xor", "not"}
    folded = list(folded_circuits())
    assert [c.output for c in folded] == [True, False, False]
    assert folded[0].gates and folded[1].gates
    for circuit in folded:
        assert_same_encoding(circuit)


@pytest.mark.parametrize(
    "circuit,message",
    [
        (BooleanCircuit(2, [("and", 0, -3)], 2), "gate wire 2 reads wires 0, -3, not both earlier"),
        (BooleanCircuit(2, [("and", 0, 3), ("not", 0)], 3),
         "gate wire 2 reads wires 0, 3, not both earlier"),
        (BooleanCircuit(2, [("and", 0, 2)], 2), "gate wire 2 reads wires 0, 2, not both earlier"),
        (BooleanCircuit(2, [("and", 0, 1), ("not", 4)], 3), "gate wire 3 reads wire 4, not an earlier one"),
        (BooleanCircuit(2, [("not", -1)], 2), "gate wire 2 reads wire -1, not an earlier one"),
        (BooleanCircuit(2, [("and", 0, 1)], -2), "output -2 is not a wire"),
        (BooleanCircuit(2, [("and", 0, 1)], 3), "output 3 is not a wire"),
        (BooleanCircuit(-1, [], False), "negative input count"),
    ],
    ids=["negative operand", "forward reference", "reads itself", "not reads ahead",
         "not reads wire -1", "output -2", "output past the last wire", "negative inputs"],
)
def test_tseitin_rejects_malformed_circuits(circuit, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        tseitin(circuit)


def test_tseitin_builds_its_cnf_without_the_literal_scan(monkeypatch):
    calls = []
    scan = CNF.__post_init__

    def counted(self):
        calls.append(len(self.clauses))
        scan(self)

    monkeypatch.setattr(CNF, "__post_init__", counted)
    cnf = tseitin(honest_circuit(hamiltonian_structure(4)))
    assert calls == [] and len(cnf.clauses) > 20_000
    folded = next(folded_circuits())
    assert folded.output is True
    assert tseitin(folded).clauses == [] and calls == [0]


# The share_cnf benchmark's circuit: (x1 & x2 & w) | (x3 & x4 & x5 & ~w).
CIRCUIT5 = circuit_structure(
    MonotoneCircuit(
        n_std=5, n_free=1,
        gates=(("not", 5), ("and", 0, 1), ("and", 7, 5), ("and", 2, 3),
               ("and", 9, 4), ("and", 10, 6), ("or", 8, 11)),
        output=12,
    )
)

# SHA-256 of dimacs(tseitin(compile_mprime(inst))) for the honest instance
# of each structure (every party commits to its own index), recorded with
# the per-gate encoder above.
COMPILED_DIMACS_SHA256 = [
    (threshold_structure(6, 2), "8f527929d05915c881f0e5b9be8b244fdbb561ccafa6f15084c1872ae51a3bfb"),
    (CIRCUIT5, "776477e803e6c9405df3048c1c38a6bfb7d6b4364ef66db648ee88e57d3704cd"),
    (hamiltonian_structure(4), "98fccab343756ab326bb14081d0418bf76d70043984532d390d228d4982a88ff"),
    (hamiltonian_structure(5), "8294de6e3dcedd55f42e02b46825a684fa0adf048fbd237b7b61f136ca4d3223"),
    (matching_structure(4), "0d75daf5117ac580922d6badde0ac4c58c9556a0397da367f4d941c9987f8f05"),
    (threshold_structure(6, 3), "8d82323cf7af70c32ee9f99c86944588d0c9e2efc119e8e24d10989d87292069"),
]


def honest_circuit(structure):
    n = structure.n
    return substituted_circuit(structure, PartySet.full(n), derive_seed(0x75E1, n))


@pytest.mark.parametrize("structure,digest", COMPILED_DIMACS_SHA256,
                         ids=["threshold(6,2)", "circuit5", "hamiltonian(4)", "hamiltonian(5)",
                              "matching(4)", "threshold(6,3)"])
def test_tseitin_of_compiled_instances_is_golden(structure, digest):
    circuit = honest_circuit(structure)
    assert_same_encoding(circuit)
    cnf = tseitin(circuit)
    assert hashlib.sha256(dimacs(cnf).encode()).hexdigest() == digest
    assert all(map(is_normal, cnf.clauses))
    # one int object per literal: variable v's v and -v, shared by every clause
    assert len({id(lit) for clause in cnf.clauses for lit in clause}) <= 2 * cnf.num_vars


def per_clause_fault(num_vars, clauses):
    """The first fault the per-clause validation loop reports, or None."""
    for clause in clauses:
        if not clause:
            return "empty clause"
        if any(lit == 0 or abs(lit) > num_vars for lit in clause):
            return "literal out of range"
    return None


@pytest.mark.parametrize(
    "clauses",
    [
        [(1,), ()],
        [(1, -2), (3, 0)],
        [(1,), (4,)],
        [(-4, 1)],
        [(1,), (2, 5), ()],   # out of range before an empty clause
        [(), (2, 5)],         # empty clause before an out-of-range literal
    ],
)
def test_cnf_validation_names_first_fault(clauses):
    fault = per_clause_fault(3, clauses)
    assert fault is not None
    with pytest.raises(ValueError, match=f"^{fault}$"):
        CNF(3, clauses)


def test_cnf_validation_accepts_in_range_formulas():
    for num_vars, clauses in ((3, [(1, -3), (-1, 2, 3)]), (3, []), (0, []), (1, [(1,), (-1,)])):
        assert per_clause_fault(num_vars, clauses) is None
        assert CNF(num_vars, clauses).clauses == clauses


SLICE = 4096  # block edges where a chunked validator would first miss a fault


def sliced_formula(num_vars=40):
    """A valid formula of two full validation slices and a partial third,
    using the extreme literals n and -n."""
    rng = Stream(0x511CE)
    clauses = random_cnf(rng, num_vars, 2 * SLICE + 1000).clauses
    clauses[0], clauses[SLICE - 1], clauses[-2] = (num_vars,), (-num_vars, 1), (1, num_vars)
    return num_vars, clauses


BOUNDARY_FAULTS = {
    "empty": lambda n: (),
    "zero": lambda n: (1, 0),
    "above": lambda n: (2, n + 1),
    "below": lambda n: (-(n + 1),),
}


def test_cnf_validation_accepts_sliced_formula_unchanged():
    num_vars, clauses = sliced_formula()
    before = list(clauses)
    assert len(clauses) > 2 * SLICE and per_clause_fault(num_vars, clauses) is None
    cnf = CNF(num_vars, clauses)
    assert cnf.clauses is clauses and clauses == before


@pytest.mark.parametrize("fault", sorted(BOUNDARY_FAULTS))
@pytest.mark.parametrize("where", ["first of slice 2", "last of partial slice"])
def test_cnf_validation_faults_at_slice_boundaries(fault, where):
    num_vars, clauses = sliced_formula()
    clauses[SLICE if where == "first of slice 2" else -1] = BOUNDARY_FAULTS[fault](num_vars)
    message = per_clause_fault(num_vars, clauses)
    assert message is not None
    with pytest.raises(ValueError, match=f"^{message}$"):
        CNF(num_vars, clauses)


@pytest.mark.parametrize("first,second", [("above", "empty"), ("empty", "zero")])
def test_cnf_validation_names_fault_of_slice_1_before_slice_2(first, second):
    num_vars, clauses = sliced_formula()
    clauses[SLICE - 1] = BOUNDARY_FAULTS[first](num_vars)
    clauses[SLICE] = BOUNDARY_FAULTS[second](num_vars)
    message = per_clause_fault(num_vars, clauses)
    assert message == per_clause_fault(num_vars, [clauses[SLICE - 1]])
    with pytest.raises(ValueError, match=f"^{message}$"):
        CNF(num_vars, clauses)


def test_cnf_validation_memory_stays_within_one_slice():
    # A set of every literal costs ~1 MB on this formula; the per-clause
    # loop holds no list of literals.
    cnf = tseitin(honest_circuit(hamiltonian_structure(5)))
    assert len(cnf.clauses) > 45_000
    tracemalloc.start()
    try:
        CNF(cnf.num_vars, cnf.clauses)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


def test_tseitin_cnf_of_hamiltonian5_retains_one_int_per_literal():
    # 45k clause tuples and lists take ~3.9 MB; a fresh int per literal
    # occurrence (100k of them, not 2 * 13,842) took 6.0 MB.
    circuit = honest_circuit(hamiltonian_structure(5))
    gc.collect()
    tracemalloc.start()
    try:
        cnf = tseitin(circuit)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(cnf.clauses) > 45_000
    assert retained < 4.5 * 2**20, retained


def per_literal_check(cnf, assignment):
    if len(assignment) < cnf.num_vars:
        return False
    return all(
        any(bool(assignment[abs(lit) - 1]) == (lit > 0) for lit in clause)
        for clause in cnf.clauses
    )


def test_check_assignment_matches_per_literal_reference():
    outcomes = set()
    for trial in range(300):
        rng = Stream(derive_seed(0xC4EC, trial))
        cnf = random_cnf(rng, 1 + rng.randrange(6), rng.randrange(6))
        bits = [rng.bit() for _ in range(cnf.num_vars + rng.randrange(3))]
        for assignment in (bits, [bool(b) for b in bits], bits[:-1], tuple(bits)):
            got = check_assignment(cnf, assignment)
            assert got == per_literal_check(cnf, assignment), (trial, assignment)
            outcomes.add(got)
    assert outcomes == {True, False}


def test_sat_brute_force_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_sat(CNF(21, [(1,)]))


def random_clauses(rng, n_vars, n_clauses, width=3):
    """Clauses of 1..width random literals, repeats and tautologies included."""
    clauses = []
    for _ in range(n_clauses):
        size = 1 + rng.randrange(width)
        clause = []
        for _ in range(size):
            v = 1 + rng.randrange(n_vars)
            clause.append(v if rng.bit() else -v)
        clauses.append(tuple(clause))
    return clauses


def random_cnf(rng, n_vars, n_clauses, width=3):
    return CNF(n_vars, random_clauses(rng, n_vars, n_clauses, width))


def test_solvers_agree_on_random_cnfs():
    disagreements = 0
    for trial in range(300):
        rng = Stream(derive_seed(0xABBA, trial))
        cnf = random_cnf(rng, 5 + rng.randrange(9), 10 + rng.randrange(30))
        by_enum = enumerate_sat(cnf) is not None
        by_cdcl = solve_cnf(cnf) is not None
        if by_enum != by_cdcl:
            disagreements += 1
    assert disagreements == 0


def test_cdcl_agrees_with_circuit_enumeration():
    # Tseitin-specific stress: CDCL satisfiability must match brute force
    # over the circuit inputs.
    for trial in range(60):
        rng = Stream(derive_seed(0xCDC1, trial))
        circuit = random_circuit(rng, 5 + rng.randrange(6), 25)
        if isinstance(circuit.output, bool):
            continue
        cnf = tseitin(circuit)
        n_in = circuit.n_inputs
        sat_inputs = any(
            eval_wires(circuit, [(packed >> i) & 1 for i in range(n_in)])[circuit.output]
            for packed in range(1 << n_in)
        )
        result = solve_cnf(cnf, max_conflicts=200_000)
        assert (result is not None) == sat_inputs
        if result is not None:
            assert check_assignment(cnf, result)
            assert eval_wires(circuit, result[: circuit.n_inputs])[circuit.output]


def pigeonhole(holes):
    """PHP(holes+1, holes): unsatisfiable."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for p1, p2 in combinations(range(pigeons), 2):
            clauses.append((-var(p1, h), -var(p2, h)))
    return CNF(pigeons * holes, clauses)


def test_pigeonhole_unsat():
    assert solve_cnf(pigeonhole(3)) is None
    assert enumerate_sat(pigeonhole(3)) is None
    assert solve_cnf(pigeonhole(5)) is None


def test_dimacs_round_trip():
    cnf = CNF(4, [(1, -2), (3,), (-1, 2, -4)])
    text = dimacs(cnf)
    assert text.startswith("p cnf 4 3")
    assert text == "p cnf 4 3\n1 -2 0\n3 0\n-1 2 -4 0\n"


def test_compiled_a1_substitution_unsat():
    # Claim-level soundness through the compiled pipeline (quick version;
    # the 50-instance sweep is acceptance criterion 2).
    structure = threshold_structure(3, 2)
    X = PartySet.of(3, {1})
    rng = Stream(0xA1)
    crs = crs_gen(3, 8, rng, expansion="toy")
    openings = [sample_opening(crs, rng) for _ in range(3)]
    coms = tuple(
        commit(i if i in X else 3 + i, openings[i - 1], crs) for i in range(1, 4)
    )
    inst = MPrimeInstance(crs=crs, commitments=coms, structure=structure)
    assert exhaustive_witness_search(inst) is None
    cnf = tseitin(compile_mprime(inst))
    assert solve_cnf(cnf, max_conflicts=500_000) is None


def test_compiled_honest_instance_sat_and_decodes():
    structure = threshold_structure(3, 2)
    rng = Stream(0xA2)
    crs = crs_gen(3, 8, rng, expansion="toy")
    openings = [sample_opening(crs, rng) for _ in range(3)]
    coms = tuple(commit(i + 1, op, crs) for i, op in enumerate(openings))
    inst = MPrimeInstance(crs=crs, commitments=coms, structure=structure)
    circuit = compile_mprime(inst)
    cnf = tseitin(circuit)
    assignment = solve_cnf(cnf, max_conflicts=500_000)
    assert assignment is not None
    from npshare.circuits import decode_witness
    from npshare.induced import mprime_verify

    assert mprime_verify(inst, decode_witness(circuit, assignment)) is True


def substituted_circuit(structure, X, seed):
    """Compiled verifier of the instance whose positions in X commit to
    their own index and the others to n + i: satisfiable iff X is qualified."""
    n = structure.n
    rng = Stream(seed)
    crs = crs_gen(n, 8, rng, expansion="toy")
    coms = tuple(
        commit(i if i in X else n + i, sample_opening(crs, rng), crs) for i in range(1, n + 1)
    )
    inst = MPrimeInstance(crs=crs, commitments=coms, structure=structure)
    return compile_mprime(inst)


def substituted_cnf(structure, X, seed):
    return tseitin(substituted_circuit(structure, X, seed))


def random_3sat(rng, n_vars):
    """Random 3-SAT at clause/variable ratio 4.26, where CDCL works hardest."""
    clauses = []
    for _ in range(int(4.26 * n_vars)):
        lits = []
        while len(lits) < 3:
            v = 1 + rng.randrange(n_vars)
            if v not in lits:
                lits.append(v)
        clauses.append(tuple(v if rng.bit() else -v for v in lits))
    return CNF(n_vars, clauses)


HAM4_CYCLE = {edge_index(4, a, b) for a, b in ((1, 2), (2, 3), (3, 4), (1, 4))}


def trajectory_corpus():
    """(family, formula) pairs, each family's formulas in a fixed order."""
    # 436, 1457 and 5522 conflicts: restarts, and at the last one an
    # activity rescale (activities pass 1e100 after ~4500 conflicts)
    for n_vars, trial in ((90, 0), (120, 0), (200, 1)):
        yield "random_3sat", random_3sat(Stream(derive_seed(0x3A7, n_vars * 10 + trial)), n_vars)
    for trial in range(300):
        rng = Stream(derive_seed(0x601D, trial))
        yield "random_cnf", random_cnf(rng, 1 + rng.randrange(13), 1 + rng.randrange(45))
    circuits = 0
    for trial in range(1000):
        rng = Stream(derive_seed(0x601E, trial))
        circuit = random_circuit(rng, 4 + rng.randrange(12), 10 + rng.randrange(60))
        if isinstance(circuit.output, bool):
            continue
        yield "random_circuit", tseitin(circuit)
        circuits += 1
        if circuits == 60:
            break
    for holes in (3, 4, 5):
        yield "pigeonhole", pigeonhole(holes)
    path = {edge_index(4, a, b) for a, b in ((1, 2), (2, 3), (3, 4))}
    for structure, planted, unplanted in (
        (threshold_structure(6, 3), {1, 3, 5}, {2, 6}),
        (hamiltonian_structure(4), HAM4_CYCLE, path),
    ):
        for X in (planted, unplanted):
            yield "substituted", substituted_cnf(structure, PartySet.of(structure.n, X), 0x601F)


# SHA-256 over the solver's answers on each family of trajectory_corpus().
# It pins the search itself: a change to decisions, propagation order,
# learning or restarts shows up as a different first satisfying assignment.
# One digest per family, so a change to how one family's formulas are built
# (random_circuit goes through Builder) re-pins that family alone.
TRAJECTORY_SHA256 = {
    "random_3sat": "f9340b54e3dc762bce2f4b8daefa45e63f3a3a3de820833119bbb942ae3ae348",
    "random_cnf": "7a9d2e589e8bf25ad6d747410f5a2292cb89dca34d1c9efb3ec5292f3b2e83b8",
    "random_circuit": "68c7250562b7ecd5e7b8749460eaacc1ff05701273509ea3bad77f38285e28d6",
    "pigeonhole": "3c616a05f13e6befa7d0e536906d811282c79876091f5aa8a66c1ff7ecf72bd5",
    "substituted": "ffc9430ba3b1eb6c5de97a7f21352a3287c5b4441ab3abd2ca06892b19a45ad3",
}


def test_solve_cnf_search_trajectory_is_golden():
    digests = {family: hashlib.sha256() for family in TRAJECTORY_SHA256}
    answers = set()
    for family, formula in trajectory_corpus():
        result = solve_cnf(formula, max_conflicts=200_000)
        digests[family].update(b"N;" if result is None else bytes(result) + b";")
        answers.add(result is None)
    assert answers == {True, False}
    assert {family: d.hexdigest() for family, d in digests.items()} == TRAJECTORY_SHA256


@pytest.mark.parametrize("formula, expected", [
    (CNF(2, [(1, 1, -2), (-1,)]), [False, False]),          # duplicate literal
    (CNF(3, [(1, -1, 2), (-2, 3, -2), (2, -3)]), [False, False, False]),  # tautology
    (CNF(2, [(2, 2), (-1, 2)]), [False, True]),              # reduces to a unit
    (CNF(2, [(2, 2, 2), (-2, -2)]), None),                   # contradictory units
    (CNF(1, [(1,), (-1,)]), None),
    (CNF(0, []), []),
    (CNF(1, [(1, -1)]), [False]),                            # binary tautology
    (CNF(2, [(1, 2, 1), (-2,)]), [True, False]),             # ternary repeat
    (CNF(3, [(1, 2, -1, 3), (-3,)]), [False, False, False]),  # wide tautology
    (CNF(3, [(1, 2, 3, 3), (-1,), (-2,)]), [False, False, True]),  # wide repeat
])
def test_solve_cnf_normalizes_clauses(formula, expected):
    assert solve_cnf(formula) == expected


def ref_normalize(num_vars, raw_clauses):
    """The clause set CNF must hold and solve_cnf search: tautologies
    dropped, repeated literals removed keeping first occurrences."""
    clauses = []
    for clause in raw_clauses:
        kept = []
        for lit in clause:
            if lit not in kept:
                kept.append(lit)
        if not any(-lit in kept for lit in kept):
            clauses.append(tuple(kept))
    return CNF(num_vars, clauses)


def clause_kind(clause):
    if any(-lit in clause for lit in clause):
        return "tautology"
    return "repeat" if len(set(clause)) < len(clause) else "normal"


def test_solve_cnf_normalization_matches_reference(monkeypatch):
    # Few variables and widths up to 6, so repeats and tautologies are common.
    # Counting heap pops (decisions) and pushes (bumps, backjumps) pins the
    # search, not just the answer: a repeat left in a clause that should have
    # lost it changes when its remaining literals propagate.
    heap_calls = [0, 0]

    def counting_pop(heap):
        heap_calls[0] += 1
        return heappop(heap)

    def counting_push(heap, item):
        heap_calls[1] += 1
        heappush(heap, item)

    monkeypatch.setattr(sat, "heappop", counting_pop)
    monkeypatch.setattr(sat, "heappush", counting_push)

    def search(formula):
        heap_calls[:] = [0, 0]
        return solve_cnf(formula), tuple(heap_calls)

    kinds = set()
    answers = set()
    for trial in range(600):
        rng = Stream(derive_seed(0x4E0F, trial))
        n_vars = 1 + rng.randrange(8)
        clauses = random_clauses(rng, n_vars, 1 + rng.randrange(30), width=6)
        kinds.update((min(len(c), 4), clause_kind(c)) for c in clauses)
        raw, ref = CNF(n_vars, clauses), ref_normalize(n_vars, clauses)
        assert raw.clauses == ref.clauses, trial
        result = search(raw)
        assert result == search(ref), trial
        answers.add(result[0] is None)
    assert answers == {True, False}
    assert {(w, k) for w in (2, 3, 4) for k in ("normal", "repeat", "tautology")} <= kinds


def is_normal(clause):
    return len(set(map(abs, clause))) == len(clause)


def test_cnf_keeps_the_callers_list_when_every_clause_is_normal():
    for num_vars, clauses in ((4, [(1,), (-2, 3), [1, -4, 2], (4, 3, -2, 1)]), (1, [(1,), (-1,)]),
                              (0, [])):
        assert CNF(num_vars, clauses).clauses is clauses


@pytest.mark.parametrize("clauses, normalized", [
    ([(1, 1, -2), (-1,)], [(1, -2), (-1,)]),
    ([(1, -1, 2), (-2, 3, -2), (2, -3)], [(-2, 3), (2, -3)]),
    ([(2, 2), (-1, 2), [3, -1, 3, 3]], [(2,), (-1, 2), (3, -1)]),
    ([(1, -1)], []),
])
def test_cnf_normalizes_abnormal_clauses_into_a_new_list(clauses, normalized):
    before = [tuple(c) for c in clauses]
    cnf = CNF(3, clauses)
    assert cnf.clauses == normalized and cnf.clauses is not clauses
    assert [tuple(c) for c in clauses] == before


def test_tseitin_encodes_a_wire_read_twice_exactly():
    # Builder folds these gates away; a hand-built circuit keeps them.
    for op in ("and", "or", "xor"):
        for gates, output in (([(op, 0, 0)], 2), ([(op, 1, 1), ("or", 2, 0)], 3),
                              ([("not", 0), (op, 2, 2), ("and", 3, 1)], 4)):
            circuit = BooleanCircuit(2, gates, output)
            cnf = tseitin(circuit)
            assert all(map(is_normal, cnf.clauses)), (op, gates)
            accepted = {packed for packed in range(4)
                        if eval_wires(circuit, [(packed >> i) & 1 for i in range(2)])[output]}
            projected = set()
            for packed in range(1 << cnf.num_vars):
                assignment = [bool((packed >> i) & 1) for i in range(cnf.num_vars)]
                if check_assignment(cnf, assignment):
                    projected.add(sum(1 << i for i in range(2) if assignment[i]))
            assert projected == accepted, (op, gates)


def test_cnf_rejects_negative_variable_count():
    with pytest.raises(ValueError, match="^negative variable count$"):
        CNF(-2, [])
    assert solve_cnf(CNF(0, [])) == []


def test_solve_cnf_budget_raises_runtime_error():
    with pytest.raises(RuntimeError, match="conflict budget exceeded"):
        solve_cnf(pigeonhole(4), max_conflicts=2)


def test_solve_cnf_runs_no_collection(collections_during):
    formula = substituted_cnf(hamiltonian_structure(4), PartySet.of(6, HAM4_CYCLE), 0x601F)
    assert len(formula.clauses) == 21_720
    assert gc.isenabled()
    result, collections = collections_during(solve_cnf, formula, max_conflicts=200_000)
    assert result is not None and collections == []
    assert gc.isenabled()


@pytest.mark.parametrize("formula, raises", [
    (CNF(2, [(1, 2), (-1,)]), None),
    (pigeonhole(3), None),
    (pigeonhole(4), RuntimeError),
], ids=["sat", "unsat", "budget"])
@pytest.mark.parametrize("enabled", [True, False])
def test_solve_cnf_restores_collector_state(formula, raises, enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        if raises:
            with pytest.raises(raises, match="conflict budget exceeded"):
                solve_cnf(formula, max_conflicts=2)
        else:
            solve_cnf(formula)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_paused_entry_points_keep_their_names():
    # the benchmark's tracer names its spans from these
    from npshare.circuits import CnfMPrimeRelation

    assert solve_cnf.__qualname__ == "solve_cnf"
    assert solve_cnf.__module__ == "npshare.sat"
    assert CnfMPrimeRelation.check.__qualname__ == "CnfMPrimeRelation.check"


def test_solve_cnf_reverifies_without_assert(monkeypatch):
    monkeypatch.setattr(sat, "check_assignment", lambda cnf, assignment: False)
    with pytest.raises(AssertionError):
        solve_cnf(CNF(2, [(1, 2)]))
    # the re-verification must survive python -O, which strips assert
    src = str(Path(__file__).parent.parent / "src")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from npshare import sat\n"
        "from npshare.cnf import CNF\n"
        "sat.check_assignment = lambda cnf, assignment: False\n"
        "try:\n    sat.solve_cnf(CNF(2, [(1, 2)]))\nexcept AssertionError:\n    print('raised')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "raised"
