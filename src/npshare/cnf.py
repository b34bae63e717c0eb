"""Tseitin transformation and CNF plumbing (DIMACS in/out).

Variable numbering is dense and mirrors the circuit wires: wire w is
variable w+1, inputs first, one fresh variable per gate, plus a unit
clause asserting the output.  Clause counts per gate: AND/OR 3, NOT 2,
XOR 4.  Satisfying assignments therefore project onto exactly the
circuit's satisfying inputs.

Every :class:`CNF` is validated when it is built: C-level scans over the
clauses and their literals, and only when they find a fault the per-clause
loop that names the first offender.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .circuits import BooleanCircuit


@dataclass
class CNF:
    num_vars: int
    clauses: list[tuple[int, ...]]

    def __post_init__(self):
        # Streaming passes: a set of the literals would add ~2 MB of peak
        # memory on a 45k-clause formula.
        n, clauses, lits = self.num_vars, self.clauses, chain.from_iterable
        if (all(clauses) and 0 not in lits(clauses)
                and -n <= min(lits(clauses), default=0) and max(lits(clauses), default=0) <= n):
            return
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            if any(lit == 0 or abs(lit) > self.num_vars for lit in clause):
                raise ValueError("literal out of range")


def tseitin(circuit: BooleanCircuit) -> CNF:
    if isinstance(circuit.output, bool):
        # Output folded to a constant: keep the input variables, encode
        # unsatisfiability (if any) with a contradictory variable rather
        # than an empty clause.
        num_vars = max(circuit.n_inputs, 1)
        clauses = [] if circuit.output else [(1,), (-1,)]
        return CNF(num_vars, clauses)
    clauses: list[tuple[int, ...]] = []
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


def check_assignment(cnf: CNF, assignment) -> bool:
    """True iff the boolean vector (var v at index v-1) satisfies the CNF."""
    n = cnf.num_vars
    if len(assignment) < n:
        return False
    true = {v if a else -v for v, a in zip(range(1, n + 1), assignment)}
    return not any(map(true.isdisjoint, cnf.clauses))


def dimacs(cnf: CNF) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    lines.extend(" ".join(str(lit) for lit in clause) + " 0" for clause in cnf.clauses)
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CNF:
    num_vars = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {line!r}")
            num_vars = int(parts[2])
            continue
        for token in line.split():
            lit = int(token)
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise ValueError("unterminated clause")
    if num_vars is None:
        raise ValueError("missing problem line")
    return CNF(num_vars, clauses)
