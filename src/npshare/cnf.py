"""Tseitin transformation and CNF plumbing (DIMACS in/out).

Variable numbering is dense and mirrors the circuit wires: wire w is
variable w+1, inputs first, one fresh variable per gate, plus a unit
clause asserting the output.  Clause counts per gate: AND/OR 3, NOT 2,
XOR 4.  Satisfying assignments therefore project onto exactly the
circuit's satisfying inputs.

Every :class:`CNF` is validated when it is built: a negative variable
count is refused; then each slice of ``SLICE`` clauses is flattened into
one list (the only extra memory, ~100 KB) that C-level scans check; only
on a fault does the per-clause loop run that names the first offender.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass
from itertools import chain

SLICE = 4096  # clauses flattened per validation scan


def gc_paused(fn):
    """Run ``fn`` with the cyclic collector paused; restore the state found.

    Pause a call whose large temporaries all die inside: their acyclic lists
    and tuples made collections that found nothing, 13-16% of decide's time.
    Not one that returns a large structure (``compile_mprime``, ``tseitin``):
    the put-off collection walks the live result after it (share_cnf +4%).
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@dataclass
class CNF:
    num_vars: int
    clauses: list[tuple[int, ...]]

    def __post_init__(self):
        n, clauses = self.num_vars, self.clauses
        if n < 0:
            raise ValueError("negative variable count")
        # One flat list of a slice's literals at a time, three C-level scans
        # each: ~100 KB, where a set of them all adds ~1 MB at 45k clauses.
        if all(clauses):
            for start in range(0, len(clauses), SLICE):
                lits = list(chain.from_iterable(clauses[start:start + SLICE]))
                if 0 in lits or not -n <= min(lits) <= max(lits) <= n:
                    break
                del lits  # freed before the next slice is flattened
            else:
                return
        for clause in clauses:
            if not clause:
                raise ValueError("empty clause")
            if any(lit == 0 or abs(lit) > n for lit in clause):
                raise ValueError("literal out of range")


def tseitin(circuit) -> CNF:
    """The CNF of a :class:`npshare.circuits.BooleanCircuit`, numbered as above."""
    if isinstance(circuit.output, bool):
        # Output folded to a constant: keep the input variables, encode
        # unsatisfiability (if any) with a contradictory variable rather
        # than an empty clause.
        num_vars = max(circuit.n_inputs, 1)
        clauses = [] if circuit.output else [(1,), (-1,)]
        return CNF(num_vars, clauses)
    clauses: list[tuple[int, ...]] = []
    add = clauses.extend
    for g, gate in enumerate(circuit.gates, circuit.n_inputs + 1):
        if len(gate) == 2:  # not
            a = gate[1] + 1
            add(((g, a), (-g, -a)))
            continue
        op, a, b = gate
        a += 1
        b += 1
        if op == "and":
            add(((-g, a), (-g, b), (g, -a, -b)))
        elif op == "or":
            add(((g, -a), (g, -b), (-g, a, b)))
        else:  # xor
            add(((-g, a, b), (-g, -a, -b), (g, -a, b), (g, a, -b)))
    clauses.append((circuit.output + 1,))
    return CNF(circuit.n_inputs + len(circuit.gates), clauses)


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
    """Read a ``p cnf`` file: one problem line, first, declaring the clause count."""
    header = None
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
            if header is not None:
                raise ValueError("second problem line")
            header = int(parts[2]), int(parts[3])
            continue
        if header is None:
            raise ValueError("clause before the problem line")
        for token in line.split():
            lit = int(token)
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise ValueError("unterminated clause")
    if header is None:
        raise ValueError("missing problem line")
    if header[1] != len(clauses):
        raise ValueError(f"problem line declares {header[1]} clauses, found {len(clauses)}")
    return CNF(header[0], clauses)
