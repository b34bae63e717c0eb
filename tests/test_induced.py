"""The induced commitment-vector language and its exhaustive search."""

import dataclasses
import itertools
import json

import pytest

from npshare import serde
from npshare.commitments import (
    CRS,
    commit,
    crs_gen,
    find_opening,
    sample_opening,
    supports_disjoint,
)
from npshare.induced import (
    MPrimeInstance,
    MPrimeRelation,
    MPrimeWitness,
    assemble_witness,
    derive_characteristic,
    exhaustive_witness_search,
    mprime_verify,
    _openable,
)
from npshare.rng import Stream, derive_seed
from npshare.scheme import SchemeContext, default_expansion, relation_for
from npshare.structures import (
    MonotoneCircuit,
    PartySet,
    circuit_structure,
    edge_index,
    evaluate,
    hamiltonian_structure,
    matching_structure,
    threshold_structure,
    verify,
)
from npshare.we import WECiphertext, _payload, leak_message, we_encrypt


def honest_instance(structure, seed, k=8, expansion="splitmix64"):
    rng = Stream(seed)
    crs = crs_gen(structure.n, k, rng, expansion=expansion)
    openings = [sample_opening(crs, rng) for _ in range(structure.n)]
    coms = tuple(commit(i + 1, op, crs) for i, op in enumerate(openings))
    return MPrimeInstance(crs=crs, commitments=coms, structure=structure), openings


def substituted_instance(structure, X, seed, k=8, expansion="splitmix64"):
    """Positions outside X commit to n+i instead of i."""
    rng = Stream(seed)
    n = structure.n
    crs = crs_gen(n, k, rng, expansion=expansion)
    openings = [sample_opening(crs, rng) for _ in range(n)]
    coms = tuple(
        commit(i if i in X else n + i, openings[i - 1], crs) for i in range(1, n + 1)
    )
    return MPrimeInstance(crs=crs, commitments=coms, structure=structure), openings


def test_characteristic_all_valid():
    inst, openings = honest_instance(threshold_structure(3, 2), 1)
    assert derive_characteristic(inst, openings) == (1, 1, 1)


def test_characteristic_bottom_forces_zero():
    inst, openings = honest_instance(threshold_structure(3, 2), 2)
    assert derive_characteristic(inst, (openings[0], None, openings[2])) == (1, 0, 1)


def test_characteristic_wrong_value_is_zero():
    # commitment at position 2 opens to value 7, not 2
    structure = threshold_structure(4, 2)
    rng = Stream(3)
    crs = crs_gen(4, 8, rng)
    openings = [sample_opening(crs, rng) for _ in range(4)]
    coms = [commit(i + 1, op, crs) for i, op in enumerate(openings)]
    coms[1] = commit(7, openings[1], crs)
    inst = MPrimeInstance(crs=crs, commitments=tuple(coms), structure=structure)
    assert derive_characteristic(inst, openings)[1] == 0


def test_characteristic_invalid_opening_same_as_bottom():
    inst, openings = honest_instance(threshold_structure(3, 2), 4)
    other = sample_opening(inst.crs, Stream(777))
    with_invalid = (other, openings[1], openings[2])
    with_bottom = (None, openings[1], openings[2])
    assert derive_characteristic(inst, with_invalid) == derive_characteristic(inst, with_bottom)


def test_mprime_verify_threshold():
    inst, openings = honest_instance(threshold_structure(3, 2), 5)
    w = MPrimeWitness(openings=(openings[0], None, openings[2]), inner=None)
    assert mprime_verify(inst, w) is True
    w1 = MPrimeWitness(openings=(openings[0], None, None), inner=None)
    assert mprime_verify(inst, w1) is False


def test_mprime_verify_hamiltonian_cross_check():
    ham = hamiltonian_structure(4)
    inst, openings = honest_instance(ham, 6)
    cycle_edges = {edge_index(4, 1, 2), edge_index(4, 2, 3), edge_index(4, 3, 4), edge_index(4, 1, 4)}
    X = PartySet.of(6, cycle_edges)
    wit = assemble_witness(X, {s: openings[s - 1] for s in cycle_edges}, (1, 2, 3, 4))
    assert mprime_verify(inst, wit) is True
    assert verify(ham, X, (1, 2, 3, 4)) is True
    # malformed inner witness degrades to False, not an error
    bad = MPrimeWitness(openings=wit.openings, inner="junk")
    assert mprime_verify(inst, bad) is False


def test_assemble_witness_rules():
    fakes = {i: sample_opening(crs_gen(3, 8, Stream(9)), Stream(i)) for i in (1, 2, 3)}
    w = assemble_witness(PartySet.of(3, {1, 2}), fakes, None)
    assert w.openings == (fakes[1], fakes[2], None)
    w_empty = assemble_witness(PartySet.empty(3), fakes, None)
    assert w_empty.openings == (None, None, None)
    w_full = assemble_witness(PartySet.full(3), fakes, None)
    assert None not in w_full.openings
    with pytest.raises(ValueError):
        assemble_witness(PartySet.of(3, {1, 2}), {1: fakes[1]}, None)


def test_exhaustive_search_finds_honest_witness():
    for structure, seed in (
        (threshold_structure(3, 2), 10),
        (hamiltonian_structure(4), 11),
    ):
        inst, _ = honest_instance(structure, seed)
        w = exhaustive_witness_search(inst)
        assert w is not None
        assert mprime_verify(inst, w) is True


def test_exhaustive_search_a1_substitution_yields_none():
    # Claim-level soundness: unqualified X, outside positions commit to n+i.
    structure = threshold_structure(4, 3)
    X = PartySet.of(4, {1, 2})  # |X| = 2 < 3
    for seed in range(20, 26):
        inst, _ = substituted_instance(structure, X, seed)
        assert exhaustive_witness_search(inst) is None


def test_exhaustive_search_no_qualified_sets():
    # A structure whose predicate is constant 0 (w and not w)
    circ = MonotoneCircuit(
        n_std=2, n_free=1, gates=(("not", 2), ("and", 2, 3)), output=4
    )
    inst, _ = honest_instance(circuit_structure(circ), 30)
    assert exhaustive_witness_search(inst) is None


def test_exhaustive_search_refuses_large_k():
    structure = threshold_structure(2, 1)
    rng = Stream(31)
    crs = crs_gen(2, 12, rng)
    coms = tuple(commit(i, sample_opening(crs, rng), crs) for i in (1, 2))
    inst = MPrimeInstance(crs=crs, commitments=coms, structure=structure)
    with pytest.raises(ValueError):
        exhaustive_witness_search(inst)


def test_monotone_closure_of_characteristic():
    # Replacing valid openings by the absent value only ever shrinks X.
    inst, openings = honest_instance(threshold_structure(5, 2), 40)
    full_bits = derive_characteristic(inst, openings)
    for drop in range(5):
        reduced = tuple(None if i == drop else openings[i] for i in range(5))
        bits = derive_characteristic(inst, reduced)
        assert all(b <= f for b, f in zip(bits, full_bits))
        assert bits[drop] == 0


def test_value_substitution_never_opens():
    # com_i commits to n+i: position i can open (x_i = 1) only where the
    # supports of i and n+i overlap, so on a CRS whose supports are all
    # disjoint nothing opens.  Seed 53's k = 8 CRS has overlapping supports
    # at (1,5), (2,6) and (3,7); whether its draws hit them is chance.
    structure = threshold_structure(4, 2)
    all_disjoint = 0
    for seed in range(50, 60):
        inst, _ = substituted_instance(structure, PartySet.empty(4), seed)
        overlapping = {i for i in range(1, 5) if not supports_disjoint(inst.crs, i, 4 + i)}
        assert set(_openable(inst)) <= overlapping
        if not overlapping:
            all_disjoint += 1
            assert _openable(inst) == {}
    assert all_disjoint >= 9


def test_relation_wrapper():
    inst, openings = honest_instance(threshold_structure(3, 2), 70)
    rel = MPrimeRelation(inst)
    assert rel.in_language() is True
    good = assemble_witness(PartySet.of(3, {1, 2}), {1: openings[0], 2: openings[1]}, None)
    assert rel.check(good) is True
    assert rel.check("not a witness") is False
    assert rel.instance_digest() == inst.digest()


def test_instance_json_round_trip():
    inst, _ = honest_instance(hamiltonian_structure(4), 80, expansion="toy")
    again = MPrimeInstance.from_json(inst.to_json())
    assert again == inst
    assert again.digest() == inst.digest()


@pytest.mark.parametrize("backend, in_language", [
    ("idealized", True), ("leaky", True), ("leaky", False), ("cnf", True),
])
def test_payload_and_digest_are_canonical_json(backend, in_language):
    structure = threshold_structure(3, 2)
    X = PartySet.full(3) if in_language else PartySet.empty(3)
    inst, _ = substituted_instance(structure, X, 90, expansion=default_expansion(backend))
    assert inst.digest() == serde.sha256_hex(serde.canonical_json_bytes(inst.to_json()))
    relation = relation_for(inst, backend)
    assert relation.in_language() is in_language
    ct = we_encrypt(backend, 16, relation, b"spliced", Stream(91))
    assert ct.payload == serde.canonical_json_bytes(json.loads(ct.payload))
    assert json.loads(ct.payload)["relation"]["instance"] == inst.to_json()


@pytest.mark.parametrize("backend", ["idealized", "leaky", "cnf"])
def test_envelope_read_lazily_equals_eager_rendering(backend):
    inst, _ = honest_instance(threshold_structure(3, 2), 95, expansion="toy")
    relation = relation_for(inst, backend)
    ct = we_encrypt(backend, 16, relation, b"lazy", Stream(96))
    eager = WECiphertext(backend, inst.digest(), 4, _payload(ct.fields, relation.describe()))
    assert (ct.payload, ct.instance_digest) == (eager.payload, eager.instance_digest)
    assert ct.to_json() == eager.to_json() and ct == eager == ct and repr(ct) == repr(eager)
    assert WECiphertext.from_json(ct.to_json()) == ct
    assert dataclasses.replace(we_encrypt(backend, 16, relation, b"lazy", Stream(96))) == eager


CIRCUIT5 = circuit_structure(MonotoneCircuit(  # c1's five parties with a free input
    n_std=5, n_free=1,
    gates=(("not", 5), ("and", 0, 1), ("and", 7, 5), ("and", 2, 3),
           ("and", 9, 4), ("and", 10, 6), ("or", 8, 11)),
    output=12,
))


@pytest.mark.parametrize("structure", [
    threshold_structure(6, 2), CIRCUIT5, hamiltonian_structure(4), matching_structure(4),
], ids=["threshold-6-2", "circuit5", "hamiltonian-4", "matching-4"])
def test_in_language_is_whether_exhaustive_search_finds_a_witness(structure):
    """On A0 and A1 lists and on dver's substitutions of them into random X."""
    n = structure.n
    ctx = SchemeContext.create(structure, seed=n, backend="leaky")
    seen = set()
    for t in range(40):
        rng = Stream(derive_seed(0x1A, t))
        coms = (ctx.a0_commitments, ctx.a1_commitments)[t % 2](rng)
        X = PartySet.of(n, {i for i in range(1, n + 1) if rng.bit()})
        for inst in (MPrimeInstance(ctx.crs, coms, structure),
                     ctx.deal(b"s", rng, coms, X).public):
            witness = exhaustive_witness_search(inst)
            expected = witness is not None
            assert MPrimeRelation(inst).in_language() is expected
            seen.add(expected)
            if expected:  # each position's opening is find_opening's, None where it finds none
                assert witness.openings == tuple(
                    find_opening(i, com, inst.crs) for i, com in enumerate(inst.commitments, 1))
    assert seen == {False, True}


def test_search_and_in_language_build_no_party_set(monkeypatch):
    """The search reads the openable positions as they are found: no PartySet."""
    ctx = SchemeContext.create(threshold_structure(6, 2), seed=6, backend="leaky")
    inst = MPrimeInstance(ctx.crs, ctx.a0_commitments(Stream(7)), ctx.structure)
    built = []
    check = PartySet.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(PartySet, "__post_init__", counted)
    assert MPrimeRelation(inst).in_language() is True
    assert exhaustive_witness_search(inst) is not None
    assert built == []


@pytest.mark.parametrize("structure,k,message", [
    (threshold_structure(3, 2), 11, "exhaustive search limited to k <= 10"),
    (hamiltonian_structure(11), 8, "inner-witness budget of 1000000 exceeded"),
])
def test_in_language_refuses_what_exhaustive_search_refuses(structure, k, message):
    """The refusals come first, even where every position is known to open:
    a leaky dealing with X the full set inverts nothing and still refuses."""
    ctx = SchemeContext.create(structure, seed=3, k=k, backend="leaky")
    inst = MPrimeInstance(ctx.crs, ctx.a0_commitments(Stream(4)), structure)
    everyone = set(range(1, structure.n + 1))
    for decide in (exhaustive_witness_search, lambda i: MPrimeRelation(i).in_language(),
                   lambda i: MPrimeRelation(i, everyone).in_language(),
                   lambda i: ctx.deal(b"s", Stream(5))):
        with pytest.raises(ValueError, match=message):
            decide(inst)


def _free_circuit(free):
    """Two parties; qualified iff party 1 is present, whatever the ``free`` inputs."""
    return circuit_structure(MonotoneCircuit(n_std=2, n_free=free, gates=(), output=0))


@pytest.mark.parametrize("inside, outside", [
    (hamiltonian_structure(10), hamiltonian_structure(11)),  # 9! = 362,880; 10! = 3,628,800
    (matching_structure(15), matching_structure(16)),  # 14!! = 645,120; 15!! = 2,027,025
    (_free_circuit(19), _free_circuit(20)),  # 2^19 = 524,288; 2^20 = 1,048,576
], ids=["hamiltonian-10-11", "matching-15-16", "circuit-free-19-20"])
def test_every_enumeration_shares_one_witness_budget(inside, outside):
    """The ground truth, the search, the leaky relation and a leaky deal accept
    the same witness spaces: up to 10^6 inner witnesses.  On the accepting side
    the full set's first candidate succeeds (matching(15) has none), so it is fast."""
    for structure in (inside, outside):
        ctx = SchemeContext.create(structure, seed=structure.n, backend="leaky")
        inst = MPrimeInstance(ctx.crs, ctx.a0_commitments(Stream(1)), structure)
        decisions = (lambda: evaluate(structure, PartySet.full(structure.n), expensive=True),
                     lambda: exhaustive_witness_search(inst) is not None,
                     lambda: MPrimeRelation(inst).in_language(),
                     lambda: leak_message(ctx.deal(b"s", Stream(2)).shares[0].ciphertext)
                     is not None)
        if structure is inside:
            answers = [decide() for decide in decisions]
            assert answers == [structure.kind != "matching"] * 4
            continue
        for decide in decisions:
            with pytest.raises(ValueError, match="inner-witness budget of 1000000 exceeded"):
                decide()


def _edges(*pairs):
    return {edge_index(4, a, b) for a, b in pairs}


TRIANGLE = _edges((1, 2), (2, 3), (1, 3))
# per structure: a larger unqualified set (threshold(6, 2) has none) and a qualified one
DEALER_SETS = [
    (threshold_structure(6, 2), None, {1, 4}),
    (CIRCUIT5, {1, 3, 4}, {1, 2}),
    (hamiltonian_structure(4), TRIANGLE | _edges((1, 4)), _edges((1, 2), (2, 3), (3, 4), (1, 4))),
    (matching_structure(4), TRIANGLE, _edges((1, 2), (3, 4))),
]


@pytest.mark.parametrize("structure, unqualified, qualified", DEALER_SETS,
                         ids=["threshold-6-2", "circuit5", "hamiltonian-4", "matching-4"])
def test_known_positions_leave_in_language_unchanged(structure, unqualified, qualified):
    """On leaky dealings over A0 and A1 lists, the relation that skips the
    dealer's positions, the one that inverts all n and exhaustive search agree,
    and the dealing's ciphertext leaks exactly when they say yes."""
    n = structure.n
    ctx = SchemeContext.create(structure, seed=n, backend="leaky")
    sets = [set(), {n}, qualified, set(range(1, n + 1))] + ([unqualified] if unqualified else [])
    seen = set()
    cases = itertools.product(range(2), (ctx.a0_commitments, ctx.a1_commitments), sets)
    for t, (_, lists, members) in enumerate(cases):
        rng = Stream(derive_seed(0x4B, t))
        dealing = ctx.deal(b"s", rng, lists(rng), PartySet.of(n, members))
        inst = dealing.public
        expected = exhaustive_witness_search(inst) is not None
        assert relation_for(inst, "leaky", members).in_language() is expected
        assert MPrimeRelation(inst).in_language() is expected
        for share in dealing.shares:
            assert (leak_message(share.ciphertext) is not None) is expected
        seen.add(expected)
    assert seen == {False, True}


def test_the_dealer_inverts_only_the_commitments_it_did_not_make(monkeypatch):
    """CRS.invert sees no pair of a full-X leaky dealing, exactly the positions
    outside X of a substituted one, and nothing on the other backends."""
    received, invert = [], CRS.invert

    def recording(self, pairs):
        pairs = list(pairs)
        received.append([i for i, _ in pairs])
        return invert(self, pairs)

    monkeypatch.setattr(CRS, "invert", recording)
    structure = threshold_structure(6, 2)
    ctx = SchemeContext.create(structure, seed=6, backend="leaky")
    ctx.deal(b"s", Stream(1))
    assert sum(received, []) == []
    for members in (set(), {2}, {1, 3, 6}, set(range(1, 7))):
        received.clear()
        rng = Stream(2)
        ctx.deal(b"s", rng, ctx.a1_commitments(rng), PartySet.of(6, members))
        assert sum(received, []) == [i for i in range(1, 7) if i not in members]
    received.clear()
    for backend in ("idealized", "cnf"):
        other = SchemeContext.create(structure, seed=6, backend=backend)
        other.deal(b"s", Stream(1))
        rng = Stream(2)
        other.deal(b"s", rng, other.a1_commitments(rng), PartySet.of(6, {2}))
    assert received == []
