"""Compilation of the induced-language verifier into a Boolean circuit.

The compiled circuit takes, in order, the opening seed bits of every
position (ell seeds of k bits per position), one presence flag per
position (the flag encodes the absent opening: the characteristic bit is
``flag AND commitment-match``), and the inner-witness bits.  Commitment
checks are realized as a bit-level PRG-expansion sub-circuit compared
against the instance's constant commitment bits, with the CRS and value
bits folded into the comparison constants.  The PRG sub-circuit is built
once per k as a template and stamped per (party, block) with its wires
renamed; the gate list and its numbering are those of building each copy
gate by gate.  The structure predicate is then evaluated over the
characteristic wires: a popcount comparator for thresholds, a direct
embedding for monotone circuits, permutation-matrix constraints for
Hamiltonian cycles and an exactly-once cover for matchings.

Only the "toy" expansion compiles (three k-bit mix rounds; the 64-bit
default would be needlessly large at desk scale), so instances headed
for this pipeline must use CRSs with ``expansion="toy"``.
``check_compilable`` holds this and the size bounds.  ``CnfMPrimeRelation``
checks them at construction and builds its circuit and CNF on its first
``check``, so a dealing fails early but compiles nothing.

Gates are AND/OR/NOT/XOR over earlier wires; the builder constant-folds
and deduplicates structurally, so instance constants never appear as
wires.  The characteristic wires (the structure sub-circuit's standard
inputs) are recorded in the compile metadata; everything downstream of
them is monotone except through the inner-witness side, mirroring the
non-deterministic circuit model.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .commitments import Opening
from .induced import MPrimeInstance, MPrimeWitness, MPrimeRelation
from .rng import GOLDEN, MIX1, MIX2
from .structures import (
    AccessStructure,
    MonotoneCircuit,
    edge_index,
    edge_slots,
    eval_gates,
    n_edge_parties,
    party_edge,
)
from . import we


@dataclass
class CompileMeta:
    n: int
    ell: int
    k: int
    structure: AccessStructure
    flags_offset: int
    inner_offset: int
    inner_len: int
    x_wires: tuple = ()

    def seed_offset(self, party: int, block: int) -> int:
        return ((party - 1) * self.ell + block) * self.k


@dataclass
class BooleanCircuit:
    n_inputs: int
    gates: list[tuple]
    output: "int | bool"
    meta: CompileMeta | None = field(default=None, repr=False)

    def to_json(self) -> dict:
        return {
            "inputs": self.n_inputs,
            "gates": [list(g) for g in self.gates],
            "output": self.output,
        }


class Builder:
    """Gate emitter with constant folding and structural deduplication."""

    def __init__(self, n_inputs: int):
        self.n_inputs = n_inputs
        self.gates: list[tuple] = []
        self._cache: dict = {}
        self._neg: dict[int, int] = {}

    def _emit(self, op: str, a: int, b: int | None = None) -> int:
        key = (op, a, b)
        wire = self._cache.get(key)
        if wire is None:
            wire = self.n_inputs + len(self.gates)
            self.gates.append((op, a) if b is None else (op, a, b))
            self._cache[key] = wire
        return wire

    def not_(self, a):
        if isinstance(a, bool):
            return not a
        wire = self._neg.get(a)
        if wire is None:
            wire = self._emit("not", a)
            self._neg[a] = wire
            self._neg[wire] = a
        return wire

    def and_(self, a, b):
        if isinstance(a, bool):
            return b if a else False
        if isinstance(b, bool):
            return a if b else False
        if a == b:
            return a
        if self._neg.get(a) == b:
            return False
        if a > b:
            a, b = b, a
        return self._emit("and", a, b)

    def or_(self, a, b):
        if isinstance(a, bool):
            return True if a else b
        if isinstance(b, bool):
            return True if b else a
        if a == b:
            return a
        if self._neg.get(a) == b:
            return True
        if a > b:
            a, b = b, a
        return self._emit("or", a, b)

    def xor(self, a, b):
        if isinstance(a, bool):
            return self.not_(b) if a else b
        if isinstance(b, bool):
            return self.not_(a) if b else a
        if a == b:
            return False
        if self._neg.get(a) == b:
            return True
        if a > b:
            a, b = b, a
        return self._emit("xor", a, b)

    def and_all(self, items):
        out = True
        for item in items:
            out = self.and_(out, item)
        return out

    def or_all(self, items):
        out = False
        for item in items:
            out = self.or_(out, item)
        return out

    def stamp(self, gates, outputs, inputs) -> list:
        """Append a copy of ``gates``, built on a fresh ``Builder(len(inputs))``
        with output wires ``outputs``, over ``inputs``, which no gate may read
        yet; returns the copy's outputs.  The copy is numbered, folded and
        deduplicated exactly as if it had been built here gate by gate."""
        base = self.n_inputs + len(self.gates)
        wire = list(inputs) + list(range(base, base + len(gates)))
        for w, gate in enumerate(gates, base):
            if gate[0] == "not":
                a = wire[gate[1]]
                self.gates.append(("not", a))
                self._cache["not", a, None] = w
                self._neg[a], self._neg[w] = w, a
            else:
                gate = (gate[0], wire[gate[1]], wire[gate[2]])
                self.gates.append(gate)
                self._cache[gate] = w
        return [w if isinstance(w, bool) else wire[w] for w in outputs]

    def finish(self, output, meta: CompileMeta | None = None) -> BooleanCircuit:
        return BooleanCircuit(self.n_inputs, self.gates, output, meta)


def eval_wires(circuit: BooleanCircuit, inputs) -> list[bool]:
    """Values of every wire, inputs first (used for witness extension)."""
    if len(inputs) != circuit.n_inputs:
        raise ValueError(f"expected {circuit.n_inputs} inputs")
    return eval_gates(circuit.gates, [bool(x) for x in inputs])


def eval_circuit(circuit: BooleanCircuit, inputs) -> bool:
    if isinstance(circuit.output, bool):
        return circuit.output
    return eval_wires(circuit, inputs)[circuit.output]


# ---------------------------------------------------------------------------
# Word arithmetic on little-endian wire vectors (wires or folded constants).

def _add_vec(bd: Builder, xs, ys, k: int):
    out = []
    carry = False
    for j in range(k):
        axb = bd.xor(xs[j], ys[j])
        out.append(bd.xor(axb, carry))
        if j < k - 1:
            carry = bd.or_(bd.and_(xs[j], ys[j]), bd.and_(carry, axb))
    return out


def _const_vec(value: int, k: int):
    return [bool((value >> j) & 1) for j in range(k)]


def _xorshift(bd: Builder, xs, shift: int, k: int):
    return [bd.xor(xs[j], xs[j + shift]) if j + shift < k else xs[j] for j in range(k)]


def _mul_const(bd: Builder, xs, const: int, k: int):
    acc = [False] * k
    for s in range(k):
        if (const >> s) & 1:
            addend = [False] * s + xs[: k - s]
            acc = _add_vec(bd, acc, addend, k)
    return acc


def toy_prg_wires(bd: Builder, seed_bits, k: int):
    """Circuit twin of :func:`npshare.commitments.prg_toy` (3k output wires)."""
    mask = (1 << k) - 1
    inc = _const_vec(GOLDEN & mask, k)
    mults = (MIX1 & mask, MIX2 & mask, MIX1 & mask)
    s1 = max(1, k // 2)
    s2 = max(1, k // 2 + 1)
    state = list(seed_bits)
    out = []
    for t in range(3):
        state = _add_vec(bd, state, inc, k)
        z = _xorshift(bd, state, s1, k)
        z = _mul_const(bd, z, mults[t], k)
        z = _xorshift(bd, z, s2, k)
        out.extend(z)
    return out


@functools.lru_cache(maxsize=5)  # 4 <= k <= COMPILE_MAX_K
def _prg_template(k: int) -> tuple[tuple, tuple]:
    """The gates and output wires of ``toy_prg_wires`` over seed wires 0..k-1."""
    bd = Builder(k)
    outs = toy_prg_wires(bd, list(range(k)), k)
    return tuple(bd.gates), tuple(outs)


def _equals_const(bd: Builder, wires, target: int):
    return bd.and_all(
        w if (target >> j) & 1 else bd.not_(w) for j, w in enumerate(wires)
    )


# ---------------------------------------------------------------------------
# Structure predicates over the characteristic wires.

def _popcount(bd: Builder, xs):
    vecs = [[x] for x in xs]
    if not vecs:
        return [False]
    while len(vecs) > 1:
        nxt = []
        for i in range(0, len(vecs) - 1, 2):
            a, b = vecs[i], vecs[i + 1]
            width = max(len(a), len(b)) + 1
            a = a + [False] * (width - len(a))
            b = b + [False] * (width - len(b))
            nxt.append(_add_vec(bd, a, b, width))
        if len(vecs) % 2:
            nxt.append(vecs[-1])
        vecs = nxt
    return vecs[0]


def _geq_const(bd: Builder, xs, t: int):
    gt = False
    eq = True
    for j in reversed(range(len(xs))):
        if (t >> j) & 1:
            eq = bd.and_(eq, xs[j])
        else:
            gt = bd.or_(gt, bd.and_(eq, xs[j]))
            eq = bd.and_(eq, bd.not_(xs[j]))
    if t >> len(xs):
        return False
    return bd.or_(gt, eq)


def _exactly_one(bd: Builder, ws):
    ws = list(ws)
    at_least = bd.or_all(ws)
    clash = bd.or_all(
        bd.and_(ws[i], ws[j]) for i in range(len(ws)) for j in range(i + 1, len(ws))
    )
    return bd.and_(at_least, bd.not_(clash))


def _threshold_predicate(bd: Builder, x_wires, t: int):
    return _geq_const(bd, _popcount(bd, x_wires), t)


def _circuit_predicate(bd: Builder, payload: MonotoneCircuit, x_wires, free_wires):
    wires = list(x_wires) + list(free_wires)
    for gate in payload.gates:
        if gate[0] == "and":
            wires.append(bd.and_(wires[gate[1]], wires[gate[2]]))
        elif gate[0] == "or":
            wires.append(bd.or_(wires[gate[1]], wires[gate[2]]))
        else:
            wires.append(bd.not_(wires[gate[1]]))
    return wires[payload.output]


def _hamiltonian_predicate(bd: Builder, v: int, x_wires, perm_wires):
    def p(step, vertex):
        return perm_wires[step * v + (vertex - 1)]

    constraints = []
    for step in range(v):
        constraints.append(_exactly_one(bd, (p(step, c) for c in range(1, v + 1))))
    for c in range(1, v + 1):
        constraints.append(_exactly_one(bd, (p(step, c) for step in range(v))))
    for step in range(v):
        nxt = (step + 1) % v
        hops = []
        for a in range(1, v + 1):
            for b in range(1, v + 1):
                if a != b:
                    edge_x = x_wires[edge_index(v, a, b) - 1]
                    hops.append(bd.and_(bd.and_(p(step, a), p(nxt, b)), edge_x))
        constraints.append(bd.or_all(hops))
    return bd.and_all(constraints)


def _matching_predicate(bd: Builder, v: int, x_wires, edge_wires):
    constraints = []
    slots = edge_slots(v)
    for vertex in range(1, v + 1):
        incident = [
            edge_wires[idx]
            for idx, (a, b) in enumerate(slots)
            if vertex in (a, b)
        ]
        constraints.append(_exactly_one(bd, incident))
    for idx in range(len(slots)):
        constraints.append(bd.or_(bd.not_(edge_wires[idx]), x_wires[idx]))
    return bd.and_all(constraints)


def inner_witness_width(structure: AccessStructure) -> int:
    if structure.kind == "threshold":
        return 0
    if structure.kind == "monotone-circuit":
        return structure.payload.n_free
    if structure.kind == "hamiltonian":
        return structure.payload ** 2
    return n_edge_parties(structure.payload)


def encode_inner(structure: AccessStructure, inner) -> list[bool]:
    """Inner witness -> fixed-width bit encoding (malformed -> zeros)."""
    width = inner_witness_width(structure)
    bits = [False] * width
    kind = structure.kind
    try:
        if kind == "monotone-circuit":
            for i, b in enumerate(tuple(inner)[:width]):
                bits[i] = bool(b)
        elif kind == "hamiltonian":
            v = structure.payload
            cycle = tuple(int(x) for x in inner)
            for step, vertex in enumerate(cycle[:v]):
                if 1 <= vertex <= v:
                    bits[step * v + (vertex - 1)] = True
        elif kind == "matching":
            v = structure.payload
            for a, b in inner:
                bits[edge_index(v, int(a), int(b)) - 1] = True
    except (TypeError, ValueError):
        return [False] * width
    return bits


def decode_inner(structure: AccessStructure, bits):
    kind = structure.kind
    if kind == "threshold":
        return None
    if kind == "monotone-circuit":
        return tuple(1 if b else 0 for b in bits)
    if kind == "hamiltonian":
        v = structure.payload
        cycle = []
        for step in range(v):
            row = [c for c in range(1, v + 1) if bits[step * v + (c - 1)]]
            cycle.append(row[0] if len(row) == 1 else 0)
        return tuple(cycle)
    v = structure.payload
    return tuple(party_edge(v, idx + 1) for idx, b in enumerate(bits) if b)


COMPILE_MAX_K = 8
COMPILE_MAX_N = 12  # also bounds v: hamiltonian and matching have n = v(v-1)/2
COMPILE_MAX_FREE = 16


def check_compilable(inst: MPrimeInstance) -> None:
    """Raise ``ValueError`` unless ``compile_mprime(inst)`` can compile."""
    crs, structure = inst.crs, inst.structure
    if crs.expansion != "toy":
        raise ValueError("only the 'toy' expansion is compilable; build the CRS with it")
    if crs.k > COMPILE_MAX_K or inst.n > COMPILE_MAX_N:
        raise ValueError(f"compile bounds exceeded (k <= {COMPILE_MAX_K}, n <= {COMPILE_MAX_N})")
    if structure.kind == "monotone-circuit" and structure.payload.n_free > COMPILE_MAX_FREE:
        raise ValueError(f"compile bounds exceeded (free inputs <= {COMPILE_MAX_FREE})")


def compile_mprime(inst: MPrimeInstance) -> BooleanCircuit:
    """Circuit accepting exactly the witnesses of ``mprime_verify``.

    Inputs: opening seeds (position-major, block-minor, low bit first),
    then n presence flags, then the inner-witness bits.
    """
    check_compilable(inst)
    crs, structure = inst.crs, inst.structure
    n, ell, k = inst.n, crs.ell, crs.k
    inner_len = inner_witness_width(structure)
    meta = CompileMeta(
        n=n, ell=ell, k=k, structure=structure,
        flags_offset=n * ell * k,
        inner_offset=n * ell * k + n,
        inner_len=inner_len,
    )
    bd = Builder(meta.inner_offset + inner_len)

    block_mask = (1 << crs.block_bits) - 1
    prg_gates, prg_outs = _prg_template(k)
    x_wires = []
    for i in range(1, n + 1):
        com = inst.commitments[i - 1]
        block_eqs = []
        for j in range(ell):
            offset = meta.seed_offset(i, j)
            prg_out = bd.stamp(prg_gates, prg_outs, range(offset, offset + k))
            target = com.block(j, crs)
            if (i >> j) & 1:
                target ^= crs.blocks[j]
            block_eqs.append(_equals_const(bd, prg_out, target & block_mask))
        flag = meta.flags_offset + (i - 1)
        x_wires.append(bd.and_(flag, bd.and_all(block_eqs)))
    meta.x_wires = tuple(x_wires)

    inner_wires = [meta.inner_offset + t for t in range(inner_len)]
    if structure.kind == "threshold":
        out = _threshold_predicate(bd, x_wires, structure.payload)
    elif structure.kind == "monotone-circuit":
        out = _circuit_predicate(bd, structure.payload, x_wires, inner_wires)
    elif structure.kind == "hamiltonian":
        out = _hamiltonian_predicate(bd, structure.payload, x_wires, inner_wires)
    else:
        out = _matching_predicate(bd, structure.payload, x_wires, inner_wires)
    return bd.finish(out, meta)


def lift_witness(circuit: BooleanCircuit, wit: MPrimeWitness) -> list[bool]:
    """Map an induced-language witness to circuit inputs (Levin direction)."""
    meta = circuit.meta
    inputs = [False] * circuit.n_inputs
    if len(wit.openings) != meta.n:
        raise ValueError(f"expected {meta.n} openings")
    for i, opening in enumerate(wit.openings, start=1):
        if opening is None:
            continue
        inputs[meta.flags_offset + (i - 1)] = True
        for j, seed in enumerate(opening.seeds):
            base = meta.seed_offset(i, j)
            for bit in range(meta.k):
                inputs[base + bit] = bool((seed >> bit) & 1)
    for t, b in enumerate(encode_inner(meta.structure, wit.inner)):
        inputs[meta.inner_offset + t] = b
    return inputs


def decode_witness(circuit: BooleanCircuit, assignment) -> MPrimeWitness:
    """Inverse of the lifting map (gate variables ignored)."""
    meta = circuit.meta
    openings = []
    for i in range(1, meta.n + 1):
        if not assignment[meta.flags_offset + (i - 1)]:
            openings.append(None)
            continue
        seeds = []
        for j in range(meta.ell):
            base = meta.seed_offset(i, j)
            seed = 0
            for bit in range(meta.k):
                if assignment[base + bit]:
                    seed |= 1 << bit
            seeds.append(seed)
        openings.append(Opening(tuple(seeds)))
    inner_bits = [
        bool(assignment[meta.inner_offset + t]) for t in range(meta.inner_len)
    ]
    return MPrimeWitness(
        openings=tuple(openings), inner=decode_inner(meta.structure, inner_bits)
    )


class CnfMPrimeRelation(MPrimeRelation):
    """Compiled relation: witnesses are satisfying CNF assignments.

    ``check`` also accepts a plain induced-language witness and lifts it
    through the witness-extension map, so the scheme's RECON flow is
    backend-agnostic.  The backend never searches; it only verifies.
    The compile bounds are checked at construction; the circuit and its
    CNF are built on the first ``check``, so dealing builds neither.
    """

    tag = "mprime-cnf"

    def __init__(self, instance: MPrimeInstance):
        check_compilable(instance)
        super().__init__(instance)

    @functools.cached_property
    def circuit(self) -> BooleanCircuit:
        return compile_mprime(self.instance)

    @functools.cached_property
    def cnf(self):
        from .cnf import tseitin

        return tseitin(self.circuit)

    def check(self, witness) -> bool:
        from .cnf import check_assignment

        if isinstance(witness, MPrimeWitness):
            if len(witness.openings) != self.instance.n:
                return False
            witness = eval_wires(self.circuit, lift_witness(self.circuit, witness))
        else:
            try:
                witness = [bool(b) for b in witness]
            except TypeError:
                return False
            if len(witness) < self.cnf.num_vars:
                return False
        return check_assignment(self.cnf, witness)


we.register_relation_loader(
    "mprime-cnf",
    lambda desc: CnfMPrimeRelation(MPrimeInstance.from_json(desc["instance"])),
)
