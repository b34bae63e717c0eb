"""SAT oracles for the compiled pipeline.

Two entry points with different scope:

* :func:`enumerate_sat` - pure enumeration, the simple, obviously-correct
  cross-check oracle for tiny formulas (<= 20 variables).
* :func:`solve_cnf` - a conflict-driven clause-learning solver (watched
  literals, 1UIP learning, VSIDS, phase saving, Luby restarts).  This is
  what decides the Tseitin-compiled verifier formulas, whose gate
  variable counts are far past any enumeration budget but whose
  refutations are short once learned clauses prune the per-block seed
  spaces.

Both solvers return a full assignment (list of bools, variable v at
index v-1) or None for unsatisfiable; SAT answers are re-verified
against the clause set before being returned.
"""

from __future__ import annotations

from heapq import heappush, heappop

from .cnf import CNF, check_assignment


class BudgetExceeded(ValueError):
    pass


def enumerate_sat(cnf: CNF, var_limit: int = 20):
    """First satisfying assignment in lexicographic order, or None."""
    if cnf.num_vars > var_limit:
        raise BudgetExceeded(f"enumeration limited to {var_limit} variables")
    for packed in range(1 << cnf.num_vars):
        assignment = [bool((packed >> i) & 1) for i in range(cnf.num_vars)]
        if check_assignment(cnf, assignment):
            return assignment
    return None


def _luby(i: int) -> int:
    size = 1
    seq = 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) // 2
        seq -= 1
        i = i % size
    return 1 << seq


def solve_cnf(cnf: CNF, max_conflicts: int | None = None):
    """CDCL search; returns an assignment or None (unsat).

    ``max_conflicts`` guards runaway instances (RuntimeError when hit).
    Literal encoding: variable v (0-based) has literals 2v (positive)
    and 2v+1 (negative).
    """
    nv = cnf.num_vars
    clauses: list[list[int]] = []
    initial_units: list[int] = []
    for clause in cnf.clauses:
        lits: list[int] = []
        seen_lits = set()
        tautology = False
        for lit in clause:
            enc = 2 * (abs(lit) - 1) + (1 if lit < 0 else 0)
            if enc in seen_lits:
                continue
            if enc ^ 1 in seen_lits:
                tautology = True
                break
            seen_lits.add(enc)
            lits.append(enc)
        if tautology:
            continue
        if not lits:
            return None
        if len(lits) == 1:
            initial_units.append(lits[0])
        else:
            clauses.append(lits)

    assign = [-1] * nv          # -1 undef, else 0/1
    level = [0] * nv
    reason = [-1] * nv          # clause index, -1 for decisions/units
    trail: list[int] = []
    trail_lim: list[int] = []
    watches: list[list[int]] = [[] for _ in range(2 * nv)]
    activity = [0.0] * nv
    phase = [0] * nv
    heap: list[tuple[float, int]] = []
    var_inc = 1.0

    for ci, lits in enumerate(clauses):
        watches[lits[0]].append(ci)
        watches[lits[1]].append(ci)
    for v in range(nv):
        heappush(heap, (0.0, v))

    def lit_val(lit: int) -> int:
        a = assign[lit >> 1]
        return a if a < 0 else a ^ (lit & 1)

    def enqueue(lit: int, rsn: int) -> None:
        var = lit >> 1
        assign[var] = (lit & 1) ^ 1
        level[var] = len(trail_lim)
        reason[var] = rsn
        phase[var] = assign[var]
        trail.append(lit)

    qhead = 0

    def propagate() -> int:
        nonlocal qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            false_lit = p ^ 1
            ws = watches[false_lit]
            i = j = 0
            length = len(ws)
            while i < length:
                ci = ws[i]
                i += 1
                lits = clauses[ci]
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if lit_val(first) == 1:
                    ws[j] = ci
                    j += 1
                    continue
                for idx in range(2, len(lits)):
                    lk = lits[idx]
                    if lit_val(lk) != 0:
                        lits[1], lits[idx] = lits[idx], lits[1]
                        watches[lk].append(ci)
                        break
                else:
                    ws[j] = ci
                    j += 1
                    if lit_val(first) == 0:
                        while i < length:       # keep remaining watches
                            ws[j] = ws[i]
                            j += 1
                            i += 1
                        del ws[j:]
                        return ci
                    enqueue(first, ci)
            del ws[j:]
        return -1

    def bump(var: int) -> None:
        nonlocal var_inc
        activity[var] += var_inc
        if activity[var] > 1e100:
            for v in range(nv):
                activity[v] *= 1e-100
            var_inc *= 1e-100
            heap.clear()
            for v in range(nv):
                if assign[v] < 0:
                    heappush(heap, (-activity[v], v))
        else:
            heappush(heap, (-activity[var], var))

    seen = [False] * nv

    def analyze(confl: int) -> tuple[list[int], int]:
        learnt: list[int] = [0]
        counter = 0
        p = -1
        index = len(trail) - 1
        cur_level = len(trail_lim)
        lits = clauses[confl]
        while True:
            start = 0 if p == -1 else 1
            for q in lits[start:]:
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    bump(var)
                    if level[var] == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            seen[p >> 1] = False
            counter -= 1
            if counter == 0:
                break
            lits = clauses[reason[p >> 1]]
        learnt[0] = p ^ 1
        for q in learnt[1:]:
            seen[q >> 1] = False
        if len(learnt) == 1:
            return learnt, 0
        best = 1
        for idx in range(2, len(learnt)):
            if level[learnt[idx] >> 1] > level[learnt[best] >> 1]:
                best = idx
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, level[learnt[1] >> 1]

    def backjump(target_level: int) -> None:
        nonlocal qhead
        if len(trail_lim) <= target_level:
            return
        boundary = trail_lim[target_level]
        for lit in reversed(trail[boundary:]):
            var = lit >> 1
            assign[var] = -1
            heappush(heap, (-activity[var], var))
        del trail[boundary:]
        del trail_lim[target_level:]
        qhead = len(trail)

    for lit in initial_units:
        if lit_val(lit) == 0:
            return None
        if lit_val(lit) == -1:
            enqueue(lit, -1)
    if propagate() != -1:
        return None

    conflicts = 0
    restart_idx = 0
    restart_limit = 100 * _luby(0)

    while True:
        confl = propagate()
        if confl != -1:
            conflicts += 1
            if max_conflicts is not None and conflicts > max_conflicts:
                raise RuntimeError("conflict budget exceeded")
            if not trail_lim:
                return None
            learnt, back_level = analyze(confl)
            var_inc /= 0.95
            backjump(back_level)
            if len(learnt) == 1:
                enqueue(learnt[0], -1)
            else:
                ci = len(clauses)
                clauses.append(learnt)
                watches[learnt[0]].append(ci)
                watches[learnt[1]].append(ci)
                enqueue(learnt[0], ci)
            if conflicts >= restart_limit:
                restart_idx += 1
                restart_limit = conflicts + 100 * _luby(restart_idx)
                backjump(0)
            continue
        if len(trail) == nv:
            assignment = [assign[v] == 1 for v in range(nv)]
            assert check_assignment(cnf, assignment)
            return assignment
        while True:
            _, var = heappop(heap)
            if assign[var] < 0:
                break
        trail_lim.append(len(trail))
        enqueue(2 * var + (phase[var] ^ 1), -1)
