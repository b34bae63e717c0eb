"""Tseitin encoding and the SAT oracles."""

from itertools import combinations

import pytest

from npshare.circuits import Builder, compile_mprime, eval_circuit
from npshare.cnf import CNF, check_assignment, dimacs, parse_dimacs, tseitin
from npshare.commitments import commit, crs_gen, sample_opening
from npshare.induced import MPrimeInstance, exhaustive_witness_search
from npshare.rng import Stream, derive_seed
from npshare.sat import BudgetExceeded, enumerate_sat, solve_cnf
from npshare.structures import PartySet, threshold_structure


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
            if eval_circuit(circuit, inputs):
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


def random_cnf(rng, n_vars, n_clauses, width=3):
    clauses = []
    for _ in range(n_clauses):
        size = 1 + rng.randrange(width)
        clause = []
        for _ in range(size):
            v = 1 + rng.randrange(n_vars)
            clause.append(v if rng.bit() else -v)
        clauses.append(tuple(clause))
    return CNF(n_vars, clauses)


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
        sat_inputs = any(
            eval_circuit(circuit, [(packed >> i) & 1 for i in range(circuit.n_inputs)])
            for packed in range(1 << circuit.n_inputs)
        )
        result = solve_cnf(cnf, max_conflicts=200_000)
        assert (result is not None) == sat_inputs
        if result is not None:
            assert check_assignment(cnf, result)
            assert eval_circuit(circuit, result[: circuit.n_inputs])


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
    again = parse_dimacs(text)
    assert again.num_vars == 4 and list(again.clauses) == list(cnf.clauses)


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
