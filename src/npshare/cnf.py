"""Tseitin transformation and CNF plumbing (DIMACS out).

Variable numbering is dense and mirrors the circuit wires: wire w is
variable w+1, inputs first, one fresh variable per gate, plus a unit
clause asserting the output.  Clause counts per gate: AND/OR 3, NOT 2,
XOR 4.  Satisfying assignments therefore project onto exactly the
circuit's satisfying inputs.

Every clause of a :class:`CNF` is normal: no variable occurs twice in it.
``CNF(...)`` checks a formula from outside clause by clause, names the
first fault, and normalizes: repeated literals dropped (first occurrences
kept), tautologies removed.  :func:`tseitin` checks its circuit gate by
gate instead, emits normal clauses (a gate reading one wire twice is
encoded exactly: AND and OR copy it, XOR is false), and so builds its
formula without rescanning the literals it made.  Its formula holds one int
object per literal: v and -v are built once per variable and every clause
reads them, as the solver's clause copies then do too.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass


def gc_paused(fn):
    """Run ``fn`` with the cyclic collector paused; restore the state found.

    Pause a call whose large temporaries all die inside: their acyclic lists
    and tuples made collections that found nothing, 13-16% of decide's time.
    Not one that returns a large structure (``compile_mprime``, ``tseitin``):
    the put-off collections walk the live result after it (share_cnf +4%); on
    decide they left the timed steps, but 3 cycles' total doubled, 58 -> 113 ms."""
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
        n = self.num_vars
        if n < 0:
            raise ValueError("negative variable count")
        normal = True
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            if any(lit == 0 or abs(lit) > n for lit in clause):
                raise ValueError("literal out of range")
            normal = normal and len(set(map(abs, clause))) == len(clause)
        if not normal:  # drop repeated literals (first occurrences kept), then tautologies
            kept = (tuple(dict.fromkeys(clause)) for clause in self.clauses)
            self.clauses = [c for c in kept if not any(-lit in c for lit in c)]


def tseitin(circuit) -> CNF:
    """The CNF of a :class:`npshare.circuits.BooleanCircuit`, numbered as above.

    Raises ``ValueError`` on a malformed circuit: a negative input count, a
    gate operand that is not an earlier wire, or an output that is no wire."""
    n = circuit.n_inputs
    if n < 0:
        raise ValueError("negative input count")
    if isinstance(circuit.output, bool):
        # Output folded to a constant: keep the input variables; encode
        # unsatisfiability as a contradictory variable, not an empty clause.
        return CNF(max(n, 1), [] if circuit.output else [(1,), (-1,)])
    num_vars = n + len(circuit.gates)
    pos = list(range(1, num_vars + 1))  # wire w's literals, one int object each
    neg = [-v for v in pos]
    clauses: list[tuple[int, ...]] = []
    add = clauses.extend
    for w, gate in enumerate(circuit.gates, n):
        g, ng = pos[w], neg[w]
        if len(gate) == 2:  # not
            a = gate[1]
            if not 0 <= a < w:  # checked before the lookups: a negative index would wrap
                raise ValueError(f"gate wire {w} reads wire {a}, not an earlier one")
            add(((g, pos[a]), (ng, neg[a])))
            continue
        op, a, b = gate
        if not (0 <= a < w and 0 <= b < w):
            raise ValueError(f"gate wire {w} reads wires {a}, {b}, not both earlier")
        pa, na, pb, nb = pos[a], neg[a], pos[b], neg[b]
        if a == b:  # one wire read twice: AND and OR copy it, XOR is false
            add(((ng,),) if op == "xor" else ((ng, pa), (g, na)))
        elif op == "and":
            add(((ng, pa), (ng, pb), (g, na, nb)))
        elif op == "or":
            add(((g, na), (g, nb), (ng, pa, pb)))
        else:  # xor
            add(((ng, pa, pb), (ng, na, nb), (g, na, pb), (g, pa, nb)))
    if not 0 <= circuit.output < num_vars:
        raise ValueError(f"output {circuit.output} is not a wire")
    clauses.append((pos[circuit.output],))
    cnf = object.__new__(CNF)  # every literal is in range by the checks above: no rescan
    cnf.num_vars, cnf.clauses = num_vars, clauses
    return cnf


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

