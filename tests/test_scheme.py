"""Dealing and reconstruction: completeness, serialization, error paths."""

import dataclasses

import pytest

from npshare import serde
from npshare.commitments import verify_opening
from npshare.rng import Stream, derive_seed
from npshare.scheme import (
    Dealing,
    MissingShareError,
    MixedDealingError,
    SchemeContext,
    Share,
    recon,
    setup,
    share_parse,
    share_serialize,
    shares_of,
)
from npshare.structures import (
    PartySet,
    edge_index,
    hamiltonian_structure,
    matching_structure,
    threshold_structure,
)


def test_setup_shape():
    dealing = setup(threshold_structure(3, 2), b"abcd", Stream(1))
    assert len(dealing.shares) == 3
    ct0 = dealing.shares[0].ciphertext.to_json()
    assert all(s.ciphertext.to_json() == ct0 for s in dealing.shares)
    # public commitments verify against the share openings
    inst = dealing.public
    for share in dealing.shares:
        assert verify_opening(share.party, share.opening, inst.crs,
                              inst.commitments[share.party - 1])


def test_setup_deterministic():
    # to_json() is the public record only, so each share is compared on its own
    a = setup(threshold_structure(3, 2), b"abcd", Stream(42))
    b = setup(threshold_structure(3, 2), b"abcd", Stream(42))
    assert serde.canonical_json_bytes(a.to_json()) == serde.canonical_json_bytes(b.to_json())
    assert [share_serialize(s) for s in a.shares] == [share_serialize(s) for s in b.shares]
    c = setup(threshold_structure(3, 2), b"abcd", Stream(43))
    assert serde.canonical_json_bytes(a.to_json()) != serde.canonical_json_bytes(c.to_json())
    assert all(share_serialize(s) != share_serialize(t) for s, t in zip(a.shares, c.shares))


PER_DEAL_VALUES = {
    "Opening": lambda dealing: dealing.shares[0].opening,
    "Commitment": lambda dealing: dealing.public.commitments[0],
    "Share": lambda dealing: dealing.shares[0],
    "MPrimeInstance": lambda dealing: dealing.public,
    "Dealing": lambda dealing: dealing,
}


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("name", PER_DEAL_VALUES)
def test_per_deal_values_compare_and_hash_by_their_fields(name):
    ctx = SchemeContext.create(threshold_structure(3, 2), seed=5, backend="leaky")
    x, y, other = (PER_DEAL_VALUES[name](ctx.deal(b"abcd", Stream(seed)))
                   for seed in (9, 9, 10))
    assert type(x).__name__ == name
    assert x is not y and x == y and x != other
    # the frozen dataclass rule: the hash of the field tuple, or its TypeError
    fields = tuple(getattr(x, f.name) for f in dataclasses.fields(x))
    assert _hash_or_error(x) == _hash_or_error(y) == _hash_or_error(fields)
    if name in ("Share", "Dealing"):  # a ciphertext renders its payload lazily: no hash
        assert _hash_or_error(x) == "unhashable type: 'WECiphertext'"
    else:
        assert {x, y, other} == {x, other} and {x: 1}[y] == 1


def test_share_and_dealing_keep_the_field_order_deal_builds_them_in():
    """``SchemeContext.deal`` builds both positionally, so reordering a field
    would swap two arguments without an error."""
    assert [f.name for f in dataclasses.fields(Share)] == ["party", "opening", "ciphertext", "crs"]
    assert [f.name for f in dataclasses.fields(Dealing)] == ["shares", "public"]
    ctx = SchemeContext.create(threshold_structure(3, 2), seed=5, backend="leaky")
    dealing = ctx.deal(b"abcd", Stream(9))
    assert type(dealing.public).__name__ == "MPrimeInstance"
    for party, share in enumerate(dealing.shares, 1):
        assert [type(getattr(share, f.name)).__name__ for f in dataclasses.fields(share)] == [
            "int", "Opening", "WECiphertext", "CRS"]
        assert share.party == party and share.crs is ctx.crs


def test_recon_threshold():
    dealing = setup(threshold_structure(3, 2), b"hunter2", Stream(2))
    X = PartySet.of(3, {1, 2})
    assert recon(shares_of(dealing, X), X, None) == b"hunter2"
    bad = PartySet.of(3, {2})
    assert recon(shares_of(dealing, bad), bad, None) is None


def test_recon_hamiltonian_end_to_end():
    ham = hamiltonian_structure(4)
    dealing = setup(ham, b"tour", Stream(3))
    cycle = (1, 2, 3, 4)
    X = PartySet.of(6, {edge_index(4, cycle[i], cycle[(i + 1) % 4]) for i in range(4)})
    assert recon(shares_of(dealing, X), X, cycle) == b"tour"


def test_recon_matching_cnf_backend():
    mt = matching_structure(4)
    dealing = setup(mt, b"pairs", Stream(4), backend="cnf")
    X = PartySet.of(6, {edge_index(4, 1, 2), edge_index(4, 3, 4)})
    assert recon(shares_of(dealing, X), X, ((1, 2), (3, 4))) == b"pairs"
    single = PartySet.of(6, {edge_index(4, 1, 2)})
    assert recon(shares_of(dealing, single), single, ((1, 2),)) is None


def test_cnf_backend_runs_tseitin_only_to_check(monkeypatch):
    from npshare import circuits, cnf

    compiles, calls = [], []
    real_compile, real = circuits.compile_mprime, cnf.tseitin
    monkeypatch.setattr(circuits, "compile_mprime",
                        lambda inst: compiles.append(inst) or real_compile(inst))
    monkeypatch.setattr(cnf, "tseitin", lambda circuit: calls.append(circuit) or real(circuit))
    mt = matching_structure(4)
    dealing = setup(mt, b"lazy", Stream(5), backend="cnf")
    assert (len(compiles), len(calls)) == (0, 0)
    X = PartySet.of(6, {edge_index(4, 1, 2), edge_index(4, 3, 4)})
    assert recon(shares_of(dealing, X), X, ((1, 2), (3, 4))) == b"lazy"
    assert (len(compiles), len(calls)) == (1, 1)
    assert recon(shares_of(dealing, X), X, ((1, 2), (3, 4))) == b"lazy"
    assert (len(compiles), len(calls)) == (2, 2)   # each check compiles once, caching nothing
    parsed = [share_parse(share_serialize(s)) for s in shares_of(dealing, X)]
    assert recon(parsed, X, ((1, 2), (3, 4))) == b"lazy"
    assert (len(compiles), len(calls)) == (3, 3)


@pytest.mark.parametrize("backend", ["idealized", "leaky", "cnf"])
def test_recon_parses_payload_and_loads_relation_once(backend, monkeypatch):
    from npshare import circuits, we

    parses, compiles = [], []
    real_parse, real_compile = we.parse_payload, circuits.compile_mprime
    monkeypatch.setattr(we, "parse_payload", lambda ct: parses.append(ct) or real_parse(ct))
    monkeypatch.setattr(circuits, "compile_mprime",
                        lambda inst: compiles.append(inst) or real_compile(inst))
    dealing = setup(threshold_structure(3, 2), b"once", Stream(21), backend=backend)
    X = PartySet.of(3, {1, 2})
    parsed = [share_parse(share_serialize(s)) for s in shares_of(dealing, X)]
    compiles.clear()
    assert recon(parsed, X, None) == b"once"
    assert (len(parses), len(compiles)) == (1, backend == "cnf")


def test_unqualified_rejection_sweep():
    structure = threshold_structure(5, 3)
    dealing = setup(structure, b"S", Stream(5))
    rng = Stream(6)
    for trial in range(50):
        size = rng.randrange(3)  # 0..2 < threshold 3
        members = set()
        while len(members) < size:
            members.add(1 + rng.randrange(5))
        X = PartySet.of(5, members)
        if members:
            assert recon(shares_of(dealing, X), X, None) is None


def test_mixed_dealing_rejected():
    d1 = setup(threshold_structure(3, 2), b"one", Stream(7))
    d2 = setup(threshold_structure(3, 2), b"two", Stream(8))
    X = PartySet.of(3, {1, 2})
    mixed = (shares_of(d1, X)[0], shares_of(d2, X)[1])
    with pytest.raises(MixedDealingError):
        recon(mixed, X, None)


def test_missing_share_rejected():
    dealing = setup(threshold_structure(3, 2), b"gap", Stream(9))
    X = PartySet.of(3, {1, 2})
    with pytest.raises(MissingShareError):
        recon([dealing.shares[0]], X, None)
    with pytest.raises(MissingShareError):
        recon([], X, None)


def test_share_serialization_round_trip():
    dealing = setup(threshold_structure(3, 2), b"rt", Stream(10))
    share = dealing.shares[1]
    data = share_serialize(share)
    again = share_parse(data)
    assert again.party == share.party and again.opening == share.opening
    assert share_serialize(again) == data
    with pytest.raises(ValueError):
        share_parse(b"")
    with pytest.raises(ValueError):
        share_parse(data[: len(data) // 2])
    tampered = data.replace(b"npshare.share/2", b"npshare.share/9")
    with pytest.raises(ValueError):
        share_parse(tampered)


def test_share_size_accounting():
    # |share| decomposes into opening + ciphertext + crs, and the
    # ciphertext portion is identical across parties.
    dealing = setup(threshold_structure(4, 2), b"sz", Stream(11))
    ct_sizes = set()
    for share in dealing.shares:
        obj = share.to_json()
        total = len(share_serialize(share))
        part_sizes = {
            key: len(serde.canonical_json_bytes(obj[key]))
            for key in ("opening", "ciphertext", "crs")
        }
        assert total > sum(part_sizes.values()) - 3  # json framing overhead only
        ct_sizes.add(part_sizes["ciphertext"])
    assert len(ct_sizes) == 1


def test_parsed_shares_reconstruct_standalone():
    # Ciphertext payloads embed the instance, so shares parsed from bytes
    # decrypt without rebinding - through both relation loaders.
    for backend in ("idealized", "cnf"):
        dealing = setup(threshold_structure(3, 2), b"parse me", Stream(20), backend=backend)
        X = PartySet.of(3, {1, 3})
        parsed = [share_parse(share_serialize(s)) for s in shares_of(dealing, X)]
        assert recon(parsed, X, None) == b"parse me"


def test_recon_with_extra_shares_ok():
    dealing = setup(threshold_structure(4, 2), b"extra", Stream(12))
    X = PartySet.of(4, {1, 3})
    assert recon(dealing.shares, X, None) == b"extra"


def test_completeness_random_sweep_small():
    # 20 random qualified sets per kind reconstruct exactly (full version
    # in the acceptance suite).
    rng = Stream(13)
    for trial in range(20):
        n = 3 + rng.randrange(4)
        t = 1 + rng.randrange(n)
        structure = threshold_structure(n, t)
        secret = rng.bytes(1 + rng.randrange(8))
        dealing = setup(structure, secret, Stream(derive_seed(14, trial)))
        members = set()
        while len(members) < t:
            members.add(1 + rng.randrange(n))
        X = PartySet.of(n, members)
        assert recon(shares_of(dealing, X), X, None) == secret
