"""The completeness route: compile the verifier, share through CNF-SAT.

Witness encryption for one NP-complete language yields witness
encryption - and hence secret sharing - for every monotone NP structure,
via Karp/Levin reductions.  This demo runs that route concretely: the
induced-language verifier is compiled to a Boolean circuit (the
commitment PRG becomes a bit-level sub-circuit), Tseitin-transformed to
CNF, and the scheme is re-run with a backend whose witnesses are
satisfying assignments.  Witnesses map constructively both ways.
"""

from npshare import PartySet, Stream, edge_index, hamiltonian_structure, recon, setup, shares_of
from npshare.circuits import compile_mprime, decode_witness, eval_wires, lift_witness
from npshare.cnf import dimacs, tseitin
from npshare.induced import exhaustive_witness_search
from npshare.sat import solve_cnf

ham = hamiltonian_structure(4)
print("=== compile the verifier of an honest instance ===")
dealing = setup(ham, b"reduced", Stream(8), backend="cnf", k=8)
inst = dealing.public
circuit = compile_mprime(inst)
cnf = tseitin(circuit)
print(f"inputs: {circuit.n_inputs} (witness bits + presence flags + seeds)")
print(f"gates:  {len(circuit.gates)}  ->  CNF: {cnf.num_vars} vars, {len(cnf.clauses)} clauses")
print("DIMACS preview:", " / ".join(dimacs(cnf).splitlines()[:3]), "...")

print()
print("=== the SAT oracle agrees with the native witness search ===")
native = exhaustive_witness_search(inst)
assignment = solve_cnf(cnf)
print("native search found a witness: ", native is not None)
print("CDCL found a satisfying assignment:", assignment is not None)
decoded = decode_witness(circuit, assignment)
print("decoded SAT witness opens parties:",
      sorted(i + 1 for i, o in enumerate(decoded.openings) if o is not None))

print()
print("=== witnesses lift constructively (the Levin direction) ===")
lifted = eval_wires(circuit, lift_witness(circuit, native))
print("lifted native witness satisfies the CNF:",
      all(any((lit > 0) == lifted[abs(lit) - 1] for lit in cl) for cl in cnf.clauses))

print()
print("=== and the scheme itself runs through the reduction path ===")
cycle = (1, 2, 3, 4)
X = PartySet.of(6, {edge_index(4, cycle[i], cycle[(i + 1) % 4]) for i in range(4)})
print("CNF-backend reconstruction:", recon(shares_of(dealing, X), X, cycle))

print()
print("=== soundness through the pipeline: substituted instances are UNSAT ===")
from npshare.commitments import commit, crs_gen, sample_opening
from npshare.induced import MPrimeInstance

path = PartySet.of(6, {edge_index(4, 1, 2), edge_index(4, 2, 3), edge_index(4, 3, 4)})
rng = Stream(99)
crs = crs_gen(6, 8, rng, expansion="toy")
coms = tuple(
    commit(i if i in path else 6 + i, sample_opening(crs, rng), crs)
    for i in range(1, 7)
)
bad = MPrimeInstance(crs=crs, commitments=coms, structure=ham)
print("unqualified + value-substituted instance:")
print("  native search:", exhaustive_witness_search(bad))
print("  compiled CNF: ", solve_cnf(tseitin(compile_mprime(bad))))
