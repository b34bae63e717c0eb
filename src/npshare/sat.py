"""SAT oracles for the compiled pipeline.

Two entry points with different scope:

* :func:`enumerate_sat` - pure enumeration, the simple, obviously-correct
  cross-check oracle for tiny formulas (<= 20 variables).
* :func:`solve_cnf` - a conflict-driven clause-learning solver over the
  CNF's signed literals (watched literals, 1UIP learning, VSIDS with a
  lazy heap, phase saving, Luby restarts).  This is what decides the
  Tseitin-compiled verifier formulas, whose gate variable counts are far
  past any enumeration budget but whose refutations are short once
  learned clauses prune the per-block seed spaces.

Both solvers return a full assignment (list of bools, variable v at
index v-1) or None for unsatisfiable; SAT answers are re-verified
against the clause set before being returned.
"""

from __future__ import annotations

from heapq import heappush, heappop

from .cnf import CNF, check_assignment


class BudgetExceeded(ValueError):
    pass


ENUMERATION_MAX_VARS = 20


def enumerate_sat(cnf: CNF):
    """First satisfying assignment in lexicographic order, or None."""
    if cnf.num_vars > ENUMERATION_MAX_VARS:
        raise BudgetExceeded(f"enumeration limited to {ENUMERATION_MAX_VARS} variables")
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
    Literals are the CNF's signed ints: ``val``, ``level``, ``reason``,
    ``seen`` and ``watches`` are indexed by the literal itself (size
    2*nv+1, so a negative literal addresses the tail), the first four at
    the literal that is true.  Watches and reasons hold the clause lists.
    The VSIDS heap is lazy: ``live[v]`` says it holds (-activity[v], v)
    at v's current activity, as it does for every unassigned v.  Bumps
    push, backjumps push only variables without a live entry, and popping
    a current entry clears the flag, so each decision is still the argmax
    of (activity, -v) over unassigned variables.
    """
    nv = cnf.num_vars
    size = 2 * nv + 1
    val: list = [None] * size       # True/False per literal, None unassigned
    level = [0] * size
    reason: list = [None] * size    # clause list, None for decisions/units
    seen = [False] * size
    watches: list[list[list[int]]] = [[] for _ in range(size)]
    initial_units: list[int] = []
    for clause in cnf.clauses:
        if len(clause) < 2 or len(set(map(abs, clause))) < len(clause):
            # Units, repeated literals, tautologies: drop repeats, keep order.
            clause = list(dict.fromkeys(clause))
            if any(-lit in clause for lit in clause):
                continue
            if not clause:
                return None
            if len(clause) == 1:
                initial_units.append(clause[0])
                continue
        c = list(clause)
        watches[c[0]].append(c)
        watches[c[1]].append(c)
    trail: list[int] = []
    trail_lim: list[int] = []
    activity = [0.0] * (nv + 1)
    phase = [False] * (nv + 1)
    heap: list[tuple[float, int]] = [(0.0, v) for v in range(1, nv + 1)]
    live = [True] * (nv + 1)
    var_inc = 1.0

    def enqueue(lit: int, rsn) -> None:
        val[lit] = True
        val[-lit] = False
        level[lit] = len(trail_lim)
        reason[lit] = rsn
        trail.append(lit)

    qhead = 0

    def propagate():
        nonlocal qhead
        dl = len(trail_lim)
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            ws = watches[false_lit]
            i = j = 0
            length = len(ws)
            while i < length:
                c = ws[i]
                i += 1
                first = c[0]
                if first == false_lit:
                    first = c[0] = c[1]
                    c[1] = false_lit
                if val[first] is True:
                    ws[j] = c
                    j += 1
                    continue
                if len(c) == 3:
                    lk = c[2]
                    if val[lk] is not False:
                        c[1] = lk
                        c[2] = false_lit
                        watches[lk].append(c)
                        continue
                elif len(c) > 3:
                    for k in range(2, len(c)):
                        lk = c[k]
                        if val[lk] is not False:
                            c[1] = lk
                            c[k] = false_lit
                            watches[lk].append(c)
                            break
                    else:
                        k = 0               # no replacement watch
                    if k:
                        continue
                ws[j] = c
                j += 1
                if val[first] is False:
                    del ws[j:i]             # keep the remaining watches
                    return c
                val[first] = True
                val[-first] = False
                level[first] = dl
                reason[first] = c
                trail.append(first)
            del ws[j:]
        return None

    def bump(var: int) -> None:
        nonlocal var_inc
        activity[var] += var_inc
        if activity[var] > 1e100:
            for v in range(1, nv + 1):
                activity[v] *= 1e-100
            var_inc *= 1e-100
            heap.clear()
            for v in range(1, nv + 1):
                live[v] = val[v] is None
                if live[v]:
                    heappush(heap, (-activity[v], v))
        else:
            heappush(heap, (-activity[var], var))
            live[var] = True

    def analyze(confl: list[int]) -> tuple[list[int], int]:
        learnt: list[int] = [0]
        counter = 0
        index = len(trail) - 1
        cur_level = len(trail_lim)
        lits = confl
        while True:
            for q in lits:
                if not seen[-q] and level[-q] > 0:
                    seen[-q] = True
                    bump(q if q > 0 else -q)
                    if level[-q] == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index]]:
                index -= 1
            p = trail[index]
            index -= 1
            seen[p] = False
            counter -= 1
            if counter == 0:
                break
            lits = reason[p][1:]
        learnt[0] = -p
        for q in learnt[1:]:
            seen[-q] = False
        if len(learnt) == 1:
            return learnt, 0
        best = 1
        for idx in range(2, len(learnt)):
            if level[-learnt[idx]] > level[-learnt[best]]:
                best = idx
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, level[-learnt[1]]

    def backjump(target_level: int) -> None:
        nonlocal qhead
        if len(trail_lim) <= target_level:
            return
        boundary = trail_lim[target_level]
        for lit in trail[boundary:]:
            val[lit] = val[-lit] = None
            var = lit if lit > 0 else -lit
            phase[var] = lit > 0
            if not live[var]:
                live[var] = True
                heappush(heap, (-activity[var], var))
        del trail[boundary:]
        del trail_lim[target_level:]
        qhead = len(trail)

    for lit in initial_units:
        if val[lit] is False:
            return None
        if val[lit] is None:
            enqueue(lit, None)
    if propagate() is not None:
        return None

    conflicts = 0
    restart_idx = 0
    restart_limit = 100 * _luby(0)

    while True:
        confl = propagate()
        if confl is not None:
            conflicts += 1
            if max_conflicts is not None and conflicts > max_conflicts:
                raise RuntimeError("conflict budget exceeded")
            if not trail_lim:
                return None
            learnt, back_level = analyze(confl)
            var_inc /= 0.95
            backjump(back_level)
            if len(learnt) == 1:
                enqueue(learnt[0], None)
            else:
                watches[learnt[0]].append(learnt)
                watches[learnt[1]].append(learnt)
                enqueue(learnt[0], learnt)
            if conflicts >= restart_limit:
                restart_idx += 1
                restart_limit = conflicts + 100 * _luby(restart_idx)
                backjump(0)
            continue
        if len(trail) == nv:
            assignment = val[1:nv + 1]
            if not check_assignment(cnf, assignment):
                raise AssertionError("solve_cnf: assignment fails the clause set")
            return assignment
        while True:
            key, var = heappop(heap)
            if key == -activity[var]:
                live[var] = False
            if val[var] is None:
                break
        trail_lim.append(len(trail))
        enqueue(var if phase[var] else -var, None)
