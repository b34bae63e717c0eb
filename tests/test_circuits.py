"""Circuit compilation: PRG twin, verifier equivalence, witness lifting."""

import gc

import pytest

from npshare.circuits import (
    BooleanCircuit,
    Builder,
    CnfMPrimeRelation,
    compile_mprime,
    decode_witness,
    encode_inner,
    eval_wires,
    inner_witness_width,
    lift_witness,
    toy_prg_wires,
)
from npshare.cnf import check_assignment, tseitin
from npshare.commitments import Commitment, Opening, commit, crs_gen, prg_toy, sample_opening
from npshare.induced import MPrimeInstance, MPrimeRelation, MPrimeWitness, mprime_verify
from npshare.rng import Stream, derive_seed
from npshare.structures import (
    MonotoneCircuit,
    circuit_structure,
    edge_index,
    hamiltonian_structure,
    matching_structure,
    threshold_structure,
)


def toy_instance(structure, seed, k=6):
    rng = Stream(seed)
    crs = crs_gen(structure.n, k, rng, expansion="toy")
    openings = [sample_opening(crs, rng) for _ in range(structure.n)]
    coms = tuple(commit(i + 1, op, crs) for i, op in enumerate(openings))
    return MPrimeInstance(crs=crs, commitments=coms, structure=structure), openings


@pytest.mark.parametrize("k", [4, 6, 8])
def test_toy_prg_circuit_matches_all_seeds(k):
    bd = Builder(k)
    outs = toy_prg_wires(bd, list(range(k)), k)
    circuit = bd.finish(0)
    for seed in range(1 << k):
        wires = eval_wires(circuit, [(seed >> b) & 1 for b in range(k)])
        got = 0
        for j, w in enumerate(outs):
            bit = w if isinstance(w, bool) else wires[w]
            got |= int(bit) << j
        assert got == prg_toy(seed, k), f"seed {seed}"


# The share_cnf benchmark's circuit: (x1 & x2 & w) | (x3 & x4 & x5 & ~w).
CIRCUIT5 = circuit_structure(
    MonotoneCircuit(
        n_std=5, n_free=1,
        gates=(("not", 5), ("and", 0, 1), ("and", 7, 5), ("and", 2, 3),
               ("and", 9, 4), ("and", 10, 6), ("or", 8, 11)),
        output=12,
    )
)


@pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
@pytest.mark.parametrize(
    "structure",
    [threshold_structure(6, 2), CIRCUIT5, hamiltonian_structure(4),
     hamiltonian_structure(5), matching_structure(4)],
    ids=lambda s: f"{s.kind}{s.n}",
)
def test_stamped_prg_copies_equal_gate_by_gate_build(structure, k, monkeypatch):
    inst, _ = toy_instance(structure, 900 + 10 * k + structure.n, k=k)
    stamped = compile_mprime(inst)
    # reference: every PRG copy built on the compile builder by toy_prg_wires
    monkeypatch.setattr(
        Builder, "stamp",
        lambda bd, gates, outputs, inputs: toy_prg_wires(bd, list(inputs), k),
    )
    built = compile_mprime(inst)
    assert stamped.n_inputs == built.n_inputs
    assert stamped.gates == built.gates
    assert stamped.output == built.output
    assert stamped.x_wires == built.x_wires


@pytest.mark.parametrize("k", [4, 7])
def test_stamp_leaves_builder_as_gate_by_gate_build(k):
    """The stamped builder holds the gate-by-gate build's gates and negations."""
    template = Builder(k)
    outs = toy_prg_wires(template, list(range(k)), k)
    stamped, built = Builder(3 * k), Builder(3 * k)
    for bd in (stamped, built):
        bd.not_(bd.and_(0, 1))  # gates before the copies
    for copy in (1, 2):
        inputs = range(copy * k, (copy + 1) * k)
        assert stamped.stamp(template.gates, outs, inputs) == toy_prg_wires(built, list(inputs), k)
    assert stamped.gates == built.gates
    assert stamped._neg == built._neg


def test_builder_constant_folding():
    bd = Builder(2)
    assert bd.and_(True, 0) == 0
    assert bd.and_(False, 0) is False
    assert bd.or_(True, 1) is True
    assert bd.xor(False, 1) == 1
    assert bd.not_(bd.not_(0)) == 0
    assert bd.and_(0, 0) == 0
    assert bd.xor(0, 0) is False
    w = bd.and_(0, 1)
    assert bd.and_(1, 0) == w + 1  # no dedup: a second gate, operands in order
    assert bd.gates[-2:] == [("and", 0, 1), ("and", 0, 1)]


STRUCTURES = [
    threshold_structure(3, 2),
    hamiltonian_structure(4),
    matching_structure(4),
    circuit_structure(
        MonotoneCircuit(
            n_std=4, n_free=1,
            gates=(("and", 0, 1), ("not", 4), ("and", 2, 6), ("and", 7, 3), ("or", 5, 8)),
            output=9,
        )
    ),
]


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.kind)
def test_compiled_circuit_accepts_honest_witness(structure):
    inst, openings = toy_instance(structure, 100 + structure.n)
    circuit = compile_mprime(inst)
    if structure.kind == "threshold":
        qualified, inner = {1, 2}, None
    elif structure.kind == "hamiltonian":
        inner = (1, 2, 3, 4)
        qualified = {edge_index(4, inner[i], inner[(i + 1) % 4]) for i in range(4)}
    elif structure.kind == "matching":
        inner = ((1, 2), (3, 4))
        qualified = {edge_index(4, a, b) for a, b in inner}
    else:
        qualified, inner = {1, 2}, (1,)
    wit = MPrimeWitness(
        openings=tuple(openings[i - 1] if i in qualified else None
                       for i in range(1, structure.n + 1)),
        inner=inner,
    )
    assert mprime_verify(inst, wit) is True
    assert eval_wires(circuit, lift_witness(circuit, wit))[circuit.output] is True


def test_all_zero_inputs_reject():
    # presence flags all 0 encode the empty set, unqualified everywhere
    for structure in STRUCTURES:
        inst, _ = toy_instance(structure, 200 + structure.n)
        circuit = compile_mprime(inst)
        assert eval_wires(circuit, [False] * circuit.n_inputs)[circuit.output] is False


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.kind)
def test_circuit_equals_verifier_on_random_inputs(structure):
    # 500 random input vectors: circuit output == mprime_verify on the
    # decoded witness (oracle equivalence against the native path).
    inst, _ = toy_instance(structure, 300 + structure.n)
    circuit = compile_mprime(inst)
    agree = 0
    for trial in range(500):
        rng = Stream(derive_seed(0x51AC + structure.n, trial))
        inputs = [bool(rng.bit()) for _ in range(circuit.n_inputs)]
        wit = decode_witness(circuit, inputs)
        assert eval_wires(circuit, inputs)[circuit.output] == mprime_verify(inst, wit)
        agree += 1
    assert agree == 500


def test_witness_lift_round_trip():
    structure = hamiltonian_structure(4)
    inst, openings = toy_instance(structure, 400)
    circuit = compile_mprime(inst)
    cycle = (1, 2, 3, 4)
    qualified = {edge_index(4, cycle[i], cycle[(i + 1) % 4]) for i in range(4)}
    wit = MPrimeWitness(
        openings=tuple(openings[i - 1] if i in qualified else None for i in range(1, 7)),
        inner=cycle,
    )
    inputs = lift_witness(circuit, wit)
    again = decode_witness(circuit, inputs)
    assert again == wit
    # the input assignment extends uniquely to a satisfying CNF assignment
    cnf = tseitin(circuit)
    assignment = eval_wires(circuit, inputs)
    assert check_assignment(cnf, assignment)


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("k", [4, 8, 12, 13, 64, 65])
def test_witness_lift_round_trip_packed_layout(k, n):
    """Position i's opening is one run of ell*k input bits after the n flags
    and positions 1..i-1's runs, low bit first; decoding the lift returns it."""
    crs = crs_gen(n, k, Stream(k), expansion="toy")
    width = crs.ell * k
    inst = MPrimeInstance(crs=crs, commitments=(Commitment(0),) * n,
                          structure=threshold_structure(n, 1))
    circuit = BooleanCircuit(n_inputs=n + n * width, gates=[], output=False, instance=inst)
    rng = Stream(n)
    openings = tuple(sample_opening(crs, rng) if i % 2 else None for i in range(1, n + 1))
    wit = MPrimeWitness(openings=openings, inner=None)
    inputs = lift_witness(circuit, wit)
    assert decode_witness(circuit, inputs) == wit
    for i, op in enumerate(openings, start=1):
        run = inputs[n + (i - 1) * width:n + i * width]
        assert sum(bit << t for t, bit in enumerate(run)) == (0 if op is None else op.bits)
    # an opening outside [0, 2^(ell*k)) lifts as the absent one: commit refuses it
    for bad in (-1, 1 << width):
        lifted = lift_witness(circuit, MPrimeWitness((Opening(bad),) + openings[1:], None))
        assert lifted == lift_witness(circuit, MPrimeWitness((None,) + openings[1:], None))


# A valid inner witness of each of STRUCTURES, by kind.
INNER = {"threshold": None, "hamiltonian": (1, 2, 3, 4), "matching": ((1, 2), (3, 4)),
         "monotone-circuit": (1,)}


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.kind)
def test_compiled_inputs_are_inner_bits_then_flags_then_openings(structure):
    """The solver decides in input order, so the predicate's inputs come first:
    the inner-witness bits at 0, the n presence flags at inner_len, then
    position i's run of ell*k opening bits; decoding the lift returns it."""
    inst, openings = toy_instance(structure, 600 + structure.n)
    circuit = compile_mprime(inst)
    assert circuit.instance is inst
    n, inner_len, width = structure.n, inner_witness_width(structure), inst.crs.ell * inst.crs.k
    assert circuit.n_inputs == inner_len + n + n * width
    present = tuple(op if i % 2 else None for i, op in enumerate(openings, start=1))
    wit = MPrimeWitness(openings=present, inner=INNER[structure.kind])
    inputs = lift_witness(circuit, wit)
    assert inputs[:inner_len] == encode_inner(structure, wit.inner)
    assert inputs[inner_len:inner_len + n] == [op is not None for op in present]
    for i, op in enumerate(present):
        run = inputs[inner_len + n + i * width:inner_len + n + (i + 1) * width]
        assert sum(bit << t for t, bit in enumerate(run)) == (0 if op is None else op.bits)
    assert decode_witness(circuit, inputs) == wit


def test_lifted_witness_satisfies_cnf_iff_valid():
    structure = threshold_structure(3, 2)
    inst, openings = toy_instance(structure, 500)
    circuit = compile_mprime(inst)
    cnf = tseitin(circuit)
    good = MPrimeWitness(openings=(openings[0], openings[1], None), inner=None)
    bad = MPrimeWitness(openings=(openings[0], None, None), inner=None)
    assert check_assignment(cnf, eval_wires(circuit, lift_witness(circuit, good)))
    assert not check_assignment(cnf, eval_wires(circuit, lift_witness(circuit, bad)))


def test_cnf_relation_accepts_both_witness_forms():
    structure = threshold_structure(3, 2)
    inst, openings = toy_instance(structure, 600)
    rel = CnfMPrimeRelation(inst)
    wit = MPrimeWitness(openings=(openings[0], openings[1], None), inner=None)
    assert rel.check(wit) is True
    circuit = compile_mprime(inst)
    assignment = eval_wires(circuit, lift_witness(circuit, wit))
    assert rel.check(assignment) is True
    assert rel.check(assignment[:-5]) is False  # length mismatch -> invalid
    assert rel.check("garbage") is False
    assert rel.in_language() is True


def test_monotone_sublayout_in_characteristic_wires():
    # Flipping any x-wire 0 -> 1 (with the witness fixed) never turns the
    # structure predicate off: checked semantically through the x-wire record.
    structure = threshold_structure(4, 2)
    inst, openings = toy_instance(structure, 700)
    circuit = compile_mprime(inst)
    assert len(circuit.x_wires) == 4
    base_wit = MPrimeWitness(openings=(openings[0], openings[1], None, None), inner=None)
    inputs = lift_witness(circuit, base_wit)
    wires = eval_wires(circuit, inputs)
    assert wires[circuit.output] is True
    x_vals = [wires[w] for w in circuit.x_wires]
    assert x_vals == [True, True, False, False]


def test_compile_bounds():
    inst, _ = toy_instance(threshold_structure(3, 2), 800, k=8)
    compile_mprime(inst)  # fine
    big_k = Stream(1)
    crs = crs_gen(3, 10, big_k, expansion="toy")
    coms = tuple(commit(i, sample_opening(crs, big_k), crs) for i in (1, 2, 3))
    inst_bad = MPrimeInstance(crs=crs, commitments=coms, structure=threshold_structure(3, 2))
    with pytest.raises(ValueError):
        compile_mprime(inst_bad)
    # default expansion is not compilable
    rng = Stream(2)
    crs_sm = crs_gen(3, 8, rng)
    coms_sm = tuple(commit(i, sample_opening(crs_sm, rng), crs_sm) for i in (1, 2, 3))
    inst_sm = MPrimeInstance(crs=crs_sm, commitments=coms_sm, structure=threshold_structure(3, 2))
    with pytest.raises(ValueError):
        compile_mprime(inst_sm)


def test_inner_encoding_round_trip():
    ham = hamiltonian_structure(4)
    assert inner_witness_width(ham) == 16
    bits = encode_inner(ham, (2, 4, 1, 3))
    from npshare.circuits import decode_inner

    assert decode_inner(ham, bits) == (2, 4, 1, 3)
    mt = matching_structure(4)
    bits_m = encode_inner(mt, ((1, 3), (2, 4)))
    assert set(decode_inner(mt, bits_m)) == {(1, 3), (2, 4)}


HAM4_CYCLE = {edge_index(4, a, b) for a, b in ((1, 2), (2, 3), (3, 4), (4, 1))}
MATCHING4 = {edge_index(4, 1, 2), edge_index(4, 3, 4)}


# (structure, qualified set, inner witness, expected): both relations must
# read an inner witness by structures.inner_form, so they agree on each
@pytest.mark.parametrize("structure, qualified, inner, expected", [
    (CIRCUIT5, {1, 2}, (1,), True),
    (CIRCUIT5, {1, 2}, [1], True),
    (CIRCUIT5, {1, 2}, (0,), False),
    (CIRCUIT5, {1, 2}, (2,), False),
    (CIRCUIT5, {1, 2}, (True,), False),
    (CIRCUIT5, {1, 2}, (1.0,), False),
    (CIRCUIT5, {1, 2}, ("1",), False),
    (CIRCUIT5, {1, 2}, (1, 0), False),
    (CIRCUIT5, {1, 2}, None, False),
    (hamiltonian_structure(4), HAM4_CYCLE, (1, 2, 3, 4), True),
    (hamiltonian_structure(4), HAM4_CYCLE, [2, 3, 4, 1], True),
    (hamiltonian_structure(4), HAM4_CYCLE, (4, 3, 2, 1), True),
    (hamiltonian_structure(4), HAM4_CYCLE, [1.5, 2, 3, 4], False),
    (hamiltonian_structure(4), HAM4_CYCLE, "1234", False),
    (hamiltonian_structure(4), HAM4_CYCLE, [True, 2, 3, 4], False),
    (hamiltonian_structure(4), HAM4_CYCLE, (1, 2, 3), False),
    (hamiltonian_structure(4), HAM4_CYCLE, (1, 2, 3, 4, 1), False),
    (hamiltonian_structure(4), HAM4_CYCLE, (1, 1, 3, 4), False),
    (hamiltonian_structure(4), HAM4_CYCLE, (0, 2, 3, 4), False),
    (matching_structure(4), MATCHING4, ((1, 2), (3, 4)), True),
    (matching_structure(4), MATCHING4, [[4, 3], [2, 1]], True),
    (matching_structure(4), MATCHING4, [[1.9, 2], [3, 4]], False),
    (matching_structure(4), MATCHING4, ["12", "34"], False),
    (matching_structure(4), MATCHING4, [[True, 2], [3, 4]], False),
    (matching_structure(4), MATCHING4, [[1, 2], [3, 4], [1, 2]], False),
    (matching_structure(4), MATCHING4, [[1, 2]], False),
    (matching_structure(4), MATCHING4, [[1, 2, 3]], False),
    (matching_structure(4), MATCHING4, [[1, 1], [3, 4]], False),
], ids=lambda v: repr(v) if not hasattr(v, "kind") else v.kind)
def test_backends_accept_the_same_inner_witnesses(structure, qualified, inner, expected):
    inst, openings = toy_instance(structure, 1000 + structure.n)
    wit = MPrimeWitness(inner=inner, openings=tuple(
        openings[i - 1] if i in qualified else None for i in range(1, structure.n + 1)))
    assert MPrimeRelation(inst).check(wit) is expected
    assert CnfMPrimeRelation(inst).check(wit) is expected


class RaisingBit:
    def __bool__(self):
        raise RuntimeError("unreadable bit")


def test_cnf_check_runs_no_collection(collections_during):
    inst, openings = toy_instance(hamiltonian_structure(4), 1004)
    wit = MPrimeWitness(inner=(1, 2, 3, 4), openings=tuple(
        openings[i - 1] if i in HAM4_CYCLE else None for i in range(1, 7)))
    assert gc.isenabled()
    accepted, collections = collections_during(CnfMPrimeRelation(inst).check, wit)
    assert accepted is True and collections == []
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_cnf_check_restores_collector_state(enabled):
    inst, openings = toy_instance(threshold_structure(3, 2), 600)
    rel = CnfMPrimeRelation(inst)
    accepted = MPrimeWitness(openings=(openings[0], openings[1], None), inner=None)
    malformed = MPrimeWitness(openings=(openings[0],), inner=None)  # lift raises ValueError
    (gc.enable if enabled else gc.disable)()
    try:
        assert rel.check(accepted) is True
        assert gc.isenabled() is enabled
        assert rel.check(malformed) is False
        assert gc.isenabled() is enabled
        with pytest.raises(RuntimeError, match="unreadable bit"):
            rel.check([RaisingBit()])
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
