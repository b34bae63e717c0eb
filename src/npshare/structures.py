"""Party sets, monotone access structures and their witness verifiers.

Four structure kinds ship:

* ``threshold`` - qualified iff at least ``t`` parties are present
  (payload: the threshold ``t``).
* ``monotone-circuit`` - qualified iff a monotone non-deterministic
  circuit accepts the membership vector for some setting of its free
  (non-deterministic) inputs; negations may only touch free inputs.
* ``hamiltonian`` - parties are the edge slots of the complete graph
  K_v (lexicographic (i, j), i < j); qualified iff the present edges
  contain a Hamiltonian cycle.  Witness: a permutation of all v
  vertices, the cycle closing from last to first.
* ``matching`` - same edge-slot parties; qualified iff the present
  edges contain a perfect matching.  Witness: the list of matched edges.

Witness verifiers are total (malformed witnesses return False, never
raise) and run in time polynomial in n.  Deciding the Hamiltonian and
matching predicates, by contrast, is exhaustive witness search and is
gated behind an explicit ``expensive`` flag.  One budget,
:data:`WITNESS_BUDGET` inner witnesses, bounds every such enumeration: a
decision, the induced-language search, and a whole monotonicity check.

All verifiers here are monotone in the party set: adding parties never
invalidates a witness.  The induced-language search relies on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from . import serde
from .rng import Stream

KINDS = ("threshold", "monotone-circuit", "hamiltonian", "matching")


@dataclass(frozen=True)
class PartySet:
    """A subset of the parties {1..n}."""

    n: int
    members: frozenset[int]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("party count must be non-negative")
        if not all(isinstance(i, int) and 1 <= i <= self.n for i in self.members):
            raise ValueError(f"members must lie in 1..{self.n}")

    @classmethod
    def of(cls, n: int, members) -> "PartySet":
        return cls(n, frozenset(members))

    @classmethod
    def full(cls, n: int) -> "PartySet":
        return cls(n, frozenset(range(1, n + 1)))

    @classmethod
    def empty(cls, n: int) -> "PartySet":
        return cls(n, frozenset())

    @classmethod
    def from_bits(cls, bits) -> "PartySet":
        return cls(len(bits), frozenset(i + 1 for i, b in enumerate(bits) if b))

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def char_bits(self) -> tuple[int, ...]:
        return tuple(1 if i in self.members else 0 for i in range(1, self.n + 1))

    def __contains__(self, party: int) -> bool:
        return party in self.members

    def __len__(self) -> int:
        return len(self.members)


# ---------------------------------------------------------------------------
# Edge-slot numbering for the graph structures: party p <-> the p-th pair
# (a, b), a < b, in lexicographic order over K_v.  1-based on both sides.

def n_edge_parties(v: int) -> int:
    return v * (v - 1) // 2


def edge_slots(v: int) -> tuple[tuple[int, int], ...]:
    return tuple((a, b) for a in range(1, v + 1) for b in range(a + 1, v + 1))


def edge_index(v: int, a: int, b: int) -> int:
    if a == b or not (1 <= a <= v and 1 <= b <= v):
        raise ValueError(f"bad edge ({a},{b}) for v={v}")
    if a > b:
        a, b = b, a
    # edges (1,*) come first, then (2,*), ...
    return (a - 1) * v - a * (a - 1) // 2 + (b - a)


def party_edge(v: int, party: int) -> tuple[int, int]:
    return edge_slots(v)[party - 1]


def eval_gates(gates, wires: list) -> list:
    """``wires`` extended by the value of each gate, ("and", a, b), ("or", a,
    b), ("xor", a, b) or ("not", a) over earlier wires, in turn."""
    for gate in gates:
        op = gate[0]
        if op == "and":
            wires.append(wires[gate[1]] and wires[gate[2]])
        elif op == "or":
            wires.append(wires[gate[1]] or wires[gate[2]])
        elif op == "xor":
            wires.append(wires[gate[1]] ^ wires[gate[2]])
        else:
            wires.append(not wires[gate[1]])
    return wires


@dataclass(frozen=True)
class MonotoneCircuit:
    """Monotone non-deterministic circuit payload.

    Wires 0..n_std-1 are the standard (party) inputs, the next n_free
    wires are non-deterministic inputs, then one wire per gate.  Gates
    are ("and", a, b), ("or", a, b) or ("not", a); negations must not be
    reachable from a standard input.
    """

    n_std: int
    n_free: int
    gates: tuple[tuple, ...]
    output: int

    def __post_init__(self):
        if min(self.n_std, self.n_free) < 0:
            raise ValueError("input counts must be non-negative")
        n_in = self.n_std + self.n_free
        tainted = []  # per gate: on a path from a standard input (wires below n_std are)
        for idx, gate in enumerate(self.gates):
            op = gate[0] if gate else None
            refs = gate[1:]
            if op not in ("and", "or", "not") or len(refs) != (1 if op == "not" else 2):
                raise ValueError(f"bad gate {gate!r}")
            if any(type(r) is not int or not 0 <= r < n_in + idx for r in refs):
                raise ValueError(f"gate {idx} references an undefined wire")
            taint = any(r < self.n_std or r >= n_in and tainted[r - n_in] for r in refs)
            if op == "not" and taint:
                raise ValueError("negation on a path from a standard input")
            tainted.append(taint)
        if not 0 <= self.output < n_in + len(self.gates):
            raise ValueError("output wire out of range")

    def eval(self, std_bits, free_bits) -> bool:
        if len(std_bits) != self.n_std or len(free_bits) != self.n_free:
            raise ValueError("input width mismatch")
        wires = [bool(b) for b in std_bits] + [bool(b) for b in free_bits]
        return eval_gates(self.gates, wires)[self.output]

    def to_json(self) -> dict:
        return {
            "free": self.n_free,
            "gates": [list(g) for g in self.gates],
            "output": self.output,
        }

    @classmethod
    def from_json(cls, n_std: int, obj: dict) -> "MonotoneCircuit":
        if unknown := sorted(obj.keys() - {"free", "gates", "output"}):
            raise ValueError(f"unknown payload keys {unknown}")
        return cls(
            n_std=n_std,
            n_free=serde.require(obj, "free", int),
            gates=tuple(tuple(g) for g in serde.require(obj, "gates", list)),
            output=serde.require(obj, "output", int),
        )


@dataclass(frozen=True)
class AccessStructure:
    kind: str
    n: int
    payload: object

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown structure kind {self.kind!r}")
        if self.kind == "threshold":
            if not isinstance(self.payload, int) or not 1 <= self.payload <= self.n:
                raise ValueError("threshold payload must be an int in 1..n")
        elif self.kind in ("hamiltonian", "matching"):
            v = self.payload
            if not isinstance(v, int) or v < 3:
                raise ValueError("graph structures need v >= 3")
            if self.n != n_edge_parties(v):
                raise ValueError(f"n must equal v(v-1)/2 = {n_edge_parties(v)}")
        else:
            if not isinstance(self.payload, MonotoneCircuit) or self.payload.n_std != self.n:
                raise ValueError("circuit payload must match the party count")

    def to_json(self) -> dict:
        payload = self.payload.to_json() if self.kind == "monotone-circuit" else self.payload
        return {"kind": self.kind, "n": self.n, "payload": payload}

    @classmethod
    def from_json(cls, obj: dict) -> "AccessStructure":
        kind, n = serde.require(obj, "kind", str), serde.require(obj, "n", int)
        if unknown := sorted(obj.keys() - {"kind", "n", "payload"}):
            raise ValueError(f"unknown keys {unknown}")
        if kind == "monotone-circuit":
            return cls(kind, n, MonotoneCircuit.from_json(n, serde.require(obj, "payload", dict)))
        return cls(kind, n, serde.require(obj, "payload", int))


def threshold_structure(n: int, t: int) -> AccessStructure:
    return AccessStructure("threshold", n, t)


def hamiltonian_structure(v: int) -> AccessStructure:
    return AccessStructure("hamiltonian", n_edge_parties(v), v)


def matching_structure(v: int) -> AccessStructure:
    return AccessStructure("matching", n_edge_parties(v), v)


def circuit_structure(circuit: MonotoneCircuit) -> AccessStructure:
    return AccessStructure("monotone-circuit", circuit.n_std, circuit)


# ---------------------------------------------------------------------------
# Witness verification (total, polynomial time).

def inner_form(structure: AccessStructure, witness):
    """The inner witness as a tuple, or None when it is malformed.  The one
    well-formedness rule, for :func:`verify` and the compiled encoding:
    vertices and free bits are ``int`` (not ``bool``); free bits are
    exactly ``n_free`` bits 0 or 1; a cycle is a permutation of 1..v; a
    matching is pairs of vertices in 1..v, no vertex in two pairs or
    twice in one.  A threshold structure reads no inner witness: ()."""
    kind = structure.kind
    try:
        if kind == "threshold":
            return ()
        if kind == "monotone-circuit":
            free = tuple(witness)
            ok = len(free) == structure.payload.n_free and all(
                type(b) is int and b in (0, 1) for b in free)
            return free if ok else None
        v = structure.payload
        if kind == "hamiltonian":
            cycle = tuple(witness)
            ok = all(type(x) is int for x in cycle) and sorted(cycle) == list(range(1, v + 1))
            return cycle if ok else None
        edges = tuple(tuple(e) for e in witness)
        ends = [x for e in edges for x in e]
        ok = all(len(e) == 2 for e in edges) and len(set(ends)) == len(ends) and all(
            type(x) is int and 1 <= x <= v for x in ends)
        return edges if ok else None
    except TypeError:
        return None


def verify(structure: AccessStructure, X: PartySet, witness) -> bool:
    """1 iff ``witness`` attests that X is qualified; malformed -> False."""
    if X.n != structure.n:
        raise ValueError("party set is over a different n than the structure")
    kind = structure.kind
    if kind == "threshold":
        return len(X) >= structure.payload
    w = inner_form(structure, witness)
    if w is None:
        return False
    if kind == "monotone-circuit":
        return structure.payload.eval(X.char_bits(), w)
    v = structure.payload
    if kind == "hamiltonian":
        return all(edge_index(v, w[i], w[(i + 1) % v]) in X for i in range(v))
    return 2 * len(w) == v and all(edge_index(v, a, b) in X for a, b in w)


# ---------------------------------------------------------------------------
# Witness enumeration (exhaustive, used for deciding the NP kinds and by
# the induced-language search).

def _hamiltonian_cycles(v: int, present):
    # First vertex pinned to 1: every cycle has such a representative.
    for rest in permutations(range(2, v + 1)):
        cycle = (1,) + rest
        if all(edge_index(v, cycle[i], cycle[(i + 1) % v]) in present for i in range(v)):
            yield cycle


def _perfect_matchings(vertices: tuple[int, ...], v: int, present):
    if not vertices:
        yield ()
        return
    a = vertices[0]
    rest = vertices[1:]
    for idx, b in enumerate(rest):
        if edge_index(v, a, b) in present:
            for tail in _perfect_matchings(rest[:idx] + rest[idx + 1:], v, present):
                yield ((a, b),) + tail


def inner_witnesses(structure: AccessStructure, X: PartySet):
    """Yield witnesses w with verify(structure, X, w) = 1 (may be empty).
    X may be any container of the members (``len`` and ``in``), unchecked."""
    kind = structure.kind
    if kind == "threshold":
        if len(X) >= structure.payload:
            yield None
        return
    if kind == "monotone-circuit":
        payload: MonotoneCircuit = structure.payload
        std = [i in X for i in range(1, structure.n + 1)]
        for packed in range(1 << payload.n_free):
            free = tuple((packed >> i) & 1 for i in range(payload.n_free))
            if payload.eval(std, free):
                yield free
        return
    if kind == "hamiltonian":
        yield from _hamiltonian_cycles(structure.payload, X)
        return
    v = structure.payload
    if v % 2 == 0:
        yield from _perfect_matchings(tuple(range(1, v + 1)), v, X)


WITNESS_BUDGET = 10**6  # inner witnesses one decision, one search or one whole check may try


def check_witness_budget(structure: AccessStructure, evaluations: int = 1) -> None:
    """Refuse ``evaluations`` runs of :func:`inner_witnesses` that together may
    try more than :data:`WITNESS_BUDGET` witnesses.  The space is multiplied in
    one factor at a time (2 per free input, (v-1)! cycles through vertex 1,
    (v-1)!! perfect matchings), stopping once past the budget, so no size
    argument builds a huge integer."""
    kind, payload = structure.kind, structure.payload
    factors = ((2 for _ in range(payload.n_free)) if kind == "monotone-circuit" else
               range(1, payload) if kind == "hamiltonian" else
               range(payload - 1, 0, -2) if kind == "matching" else ())
    tried = evaluations
    for factor in factors:
        if tried > WITNESS_BUDGET:
            break
        tried *= factor
    if tried > WITNESS_BUDGET:
        raise ValueError(f"inner-witness budget of {WITNESS_BUDGET} exceeded: "
                         f"{evaluations} evaluation(s) of this {kind} structure may try more")


def evaluate(structure: AccessStructure, X: PartySet, expensive: bool = False) -> bool:
    """Decide M(X): true iff :func:`inner_witnesses` yields a witness.

    Thresholds and circuits without free inputs have one candidate
    witness.  The NP kinds (and circuits with free inputs) are decided by
    exhaustive witness search, which callers must opt into via
    ``expensive=True``; any kind whose witness space exceeds
    :data:`WITNESS_BUDGET` is refused (:func:`check_witness_budget`).
    """
    if X.n != structure.n:
        raise ValueError("party set is over a different n than the structure")
    kind = structure.kind
    if not expensive and kind != "threshold" and (
            kind != "monotone-circuit" or structure.payload.n_free):
        raise ValueError(f"deciding a {kind} structure is exhaustive; pass expensive=True")
    check_witness_budget(structure)
    for _ in inner_witnesses(structure, X.members):
        return True
    return False


def _members(packed: int) -> frozenset[int]:
    """The parties at the set bits of ``packed``, bit 0 being party 1, in one pass."""
    return frozenset(i for i, bit in enumerate(bin(packed)[:1:-1], 1) if bit == "1")


SAMPLED_MAX_BITS = 10**6  # n * trials: each trial draws and evaluates two n-bit party sets


def _evaluations(n: int, mode: str, trials: int) -> int:
    """How many party sets :func:`check_monotone_fn` evaluates, once its bounds pass."""
    if mode == "exhaustive":
        if n > 12:
            raise ValueError("exhaustive monotonicity check limited to n <= 12")
        return 1 << n
    if mode != "sampled":
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    if trials < 1:
        raise ValueError(f"sampled monotonicity check needs trials >= 1, got {trials}")
    if n * trials > SAMPLED_MAX_BITS:
        raise ValueError(f"sampled monotonicity check limited to n * trials <= "
                         f"{SAMPLED_MAX_BITS}, got {n * trials}")
    return 2 * trials


def check_monotone_fn(n: int, predicate, mode: str = "exhaustive",
                      trials: int = 1000, rng_seed: int = 0) -> bool:
    """True iff no violating pair X <= Y with M(X)=1, M(Y)=0 is found.

    ``predicate`` maps a frozenset of parties to a bool.  Exhaustive mode
    checks all single-element extensions, which suffices by induction.
    """
    _evaluations(n, mode, trials)
    if mode == "exhaustive":
        table = [predicate(_members(packed)) for packed in range(1 << n)]
        for packed in range(1 << n):
            if table[packed] and not all(table[packed | (1 << i)] for i in range(n)):
                return False
        return True
    rng = Stream(rng_seed)
    for _ in range(trials):
        x_packed = rng.bits(n)
        y_packed = x_packed | rng.bits(n)
        if predicate(_members(x_packed)) and not predicate(_members(y_packed)):
            return False
    return True


def check_monotone(structure: AccessStructure, mode: str = "exhaustive",
                   trials: int = 1000, rng_seed: int = 0) -> bool:
    check_witness_budget(structure, _evaluations(structure.n, mode, trials))
    return check_monotone_fn(
        structure.n,
        lambda members: evaluate(structure, PartySet(structure.n, members), expensive=True),
        mode, trials, rng_seed,
    )
