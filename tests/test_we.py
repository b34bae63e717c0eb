"""Witness-encryption backends: completeness, soundness shape, envelopes."""

import dataclasses
import json

import pytest

from npshare import serde
from npshare.rng import Stream, derive_seed
from npshare.we import (
    CorruptCiphertext,
    UnboundRelation,
    WECiphertext,
    leak_message,
    load_relation,
    parse_payload,
    we_decrypt,
    we_encrypt,
)


class ModRelation:
    """Tiny test relation: witness w satisfies iff w % modulus == target."""

    def __init__(self, modulus, target, member=True):
        self.modulus = modulus
        self.target = target % modulus
        self.member = member  # declared language membership for the leaky backend

    def instance_digest(self):
        return f"mod-{self.modulus}-{self.target}-{self.member}"

    def check(self, witness):
        if not isinstance(witness, int) or not self.member:
            return False
        return witness % self.modulus == self.target

    def in_language(self):
        return self.member

    def describe(self):
        return {"type": "mod"}


def test_idealized_round_trip():
    rel = ModRelation(97, 13)
    ct = we_encrypt("idealized", 16, rel, b"payload bytes", Stream(1))
    assert we_decrypt(ct, 13 + 97 * 5) == b"payload bytes"
    assert we_decrypt(ct, 14) is None


def test_invalid_witness_exhaustive():
    # Idealized backend releases nothing on any of the 2^12 wrong witnesses.
    rel = ModRelation(1 << 12, 777)
    ct = we_encrypt("idealized", 16, rel, b"x", Stream(2))
    for w in range(1 << 12):
        expected = b"x" if w == 777 else None
        assert we_decrypt(ct, w) == expected


def test_completeness_sweep_across_backends():
    # 1000 random (instance, valid witness) pairs decrypt exactly; zero failures.
    failures = 0
    for trial in range(1000):
        rng = Stream(derive_seed(0xC0, trial))
        backend = ("idealized", "leaky")[trial % 2]
        modulus = 2 + rng.randrange(500)
        target = rng.randrange(modulus)
        message = rng.bytes(1 + rng.randrange(16))
        rel = ModRelation(modulus, target)
        ct = we_encrypt(backend, 16, rel, message, rng)
        witness = target + modulus * rng.randrange(4)
        if we_decrypt(ct, witness) != message:
            failures += 1
    assert failures == 0


def test_length_preservation():
    for length in range(1, 65):
        rel = ModRelation(7, 3)
        msg = bytes(range(length % 256))[:length] or b"\x00"
        msg = (msg * ((length // len(msg)) + 1))[:length]
        ct = we_encrypt("idealized", 16, rel, msg, Stream(length))
        out = we_decrypt(ct, 3)
        assert out == msg and len(out) == length


def test_randomized_encryption_same_message():
    rel = ModRelation(11, 5)
    ct1 = we_encrypt("idealized", 16, rel, b"mm", Stream(10))
    ct2 = we_encrypt("idealized", 16, rel, b"mm", Stream(11))
    assert ct1.payload != ct2.payload
    assert we_decrypt(ct1, 5) == we_decrypt(ct2, 5) == b"mm"
    lk1 = we_encrypt("leaky", 16, rel, b"mm", Stream(10))
    lk2 = we_encrypt("leaky", 16, rel, b"mm", Stream(11))
    assert lk1.payload != lk2.payload


def test_leaky_backend_leaks_iff_in_language():
    inside = ModRelation(5, 2, member=True)
    ct = we_encrypt("leaky", 16, inside, b"open secret", Stream(3))
    assert leak_message(ct) == b"open secret"
    assert b"open secret".hex().encode() in ct.payload  # verbatim, hex-embedded
    assert we_decrypt(ct, 2) == b"open secret"

    outside = ModRelation(5, 2, member=False)
    ct2 = we_encrypt("leaky", 16, outside, b"open secret", Stream(4))
    assert leak_message(ct2) is None
    assert we_decrypt(ct2, 2) is None  # no witness is valid outside the language


def test_leaky_out_of_language_payload_message_independent():
    # Equal-length messages: identical payload distribution (same coins).
    rel = ModRelation(5, 2, member=False)
    ct_a = we_encrypt("leaky", 16, rel, b"AAAA", Stream(55))
    ct_b = we_encrypt("leaky", 16, rel, b"BBBB", Stream(55))
    assert ct_a.payload == ct_b.payload


def test_leak_message_other_backend_none():
    rel = ModRelation(5, 2)
    ct = we_encrypt("idealized", 16, rel, b"zz", Stream(6))
    assert leak_message(ct) is None


@pytest.mark.parametrize("backend,member", [
    ("idealized", True), ("cnf", True), ("leaky", True), ("leaky", False),
])
def test_cached_parse_equals_parse_payload(backend, member):
    rel = ModRelation(5, 2, member=member)
    ct = we_encrypt(backend, 16, rel, b"cached", Stream(12))
    parsed = parse_payload(ct)
    assert ct.fields == {f: v for f, v in parsed.items() if f not in ("relation", "v")}
    from_file = WECiphertext.from_json(ct.to_json())
    from_file.relation = rel
    assert from_file.fields is None and load_relation(from_file) is rel
    assert from_file.fields == ct.fields


def test_replaced_payload_has_no_cache_and_is_parsed():
    rel = ModRelation(5, 2)
    ct = we_encrypt("leaky", 16, rel, b"first", Stream(13))
    other = we_encrypt("leaky", 16, rel, b"other", Stream(14))
    swapped = dataclasses.replace(ct, payload=other.payload)
    assert swapped.fields is None and dataclasses.replace(ct) == ct
    assert leak_message(swapped) == b"other"
    assert we_decrypt(swapped, 2) == b"other"


@pytest.mark.parametrize("backend", ["idealized", "leaky"])
def test_a_payload_other_than_its_canonical_rendering_is_corrupt(backend):
    """The same fields with other spacing, or an unknown key in the relation,
    are refused when parsed; the canonical bytes load."""
    rel = ModRelation(5, 2)
    ct = we_encrypt(backend, 16, rel, b"canon", Stream(15))
    obj = json.loads(ct.payload)
    for payload in (json.dumps(obj, indent=1, sort_keys=True).encode(),
                    serde.canonical_json_bytes({**obj, "relation": {"type": "mod", "bogus": 1}})):
        with pytest.raises(CorruptCiphertext, match="not the canonical rendering"):
            load_relation(dataclasses.replace(ct, payload=payload))
    assert load_relation(dataclasses.replace(ct, payload=ct.payload)) is rel


def test_corrupted_payload_distinguishable():
    rel = ModRelation(7, 1)
    ct = we_encrypt("idealized", 16, rel, b"fragile", Stream(7))
    broken = WECiphertext(
        backend=ct.backend, instance_digest=ct.instance_digest,
        msg_len=ct.msg_len, payload=ct.payload[:-10], relation=rel,
    )
    with pytest.raises(CorruptCiphertext):
        we_decrypt(broken, 1)


def test_envelope_round_trip_and_binding():
    rel = ModRelation(7, 1)
    ct = we_encrypt("idealized", 16, rel, b"env", Stream(8))
    parsed = WECiphertext.from_json(ct.to_json())
    assert parsed.payload == ct.payload and parsed.relation is None
    with pytest.raises(UnboundRelation, match="no loader for relation type 'mod'"):
        we_decrypt(parsed, 1)


def test_witness_for_other_instance_rejected():
    rel_a = ModRelation(97, 13)
    rel_b = ModRelation(97, 14)
    ct = we_encrypt("idealized", 16, rel_a, b"a-only", Stream(9))
    # 14 is valid for rel_b but not for the instance bound into ct
    assert we_decrypt(ct, 14) is None


def test_parameter_validation():
    rel = ModRelation(3, 1)
    with pytest.raises(ValueError):
        we_encrypt("idealized", 4, rel, b"x", Stream(1))
    with pytest.raises(ValueError):
        we_encrypt("idealized", 16, rel, b"", Stream(1))
    with pytest.raises(ValueError):
        we_encrypt("nope", 16, rel, b"x", Stream(1))
