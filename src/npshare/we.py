"""Witness encryption backends.

*** None of this is secure witness encryption. ***  The backends model
the WE functionality so that the scheme and the security harness have
something executable to run against:

* ``idealized`` - the ciphertext record carries the instance and a
  symmetric key; decryption releases the key only after an internal
  call to the relation verifier R(x, w).  Models "any witness decrypts,
  nothing else does".
* ``leaky`` - maximally insecure WE that still satisfies the letter of
  the contract: when the instance is *in* the language, the message is
  embedded verbatim in the payload (extractable without any witness);
  when it is not, the payload is independent of the message.  This is
  the backend that gives harness distinguishers genuine advantage.
* ``cnf`` - same mechanics as ``idealized`` but the relation is a
  compiled-CNF relation whose witnesses are satisfying assignments (see
  :mod:`npshare.circuits`).

The symmetric layer is XOR with a SplitMix64-derived keystream plus a
64-bit checksum; corruption is reported as :class:`CorruptCiphertext`,
distinct from the plain "wrong witness" outcome (None).

A relation object must provide ``instance_digest()``, ``check(w)`` and
``describe()``; ``leaky`` additionally needs ``in_language()``.
``describe()`` returns a JSON object whose ``"type"`` is the relation
class's ``tag``; the payload, rendered whole by ``serde.canonical_json_bytes``,
carries it as ``"relation"``.  :func:`load_relation` rebuilds the two
induced-language relations from theirs, which makes parsed ciphertexts
self-contained.
A ciphertext from :func:`we_encrypt` keeps the fields it wrote as a
cached parse and is built without its envelope bytes: its payload and
instance digest are rendered on first read, so a reader of the fields
alone never pays for them.  Payloads read from outside are parsed in one
place, :func:`parse_payload`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import serde
from .rng import MASK64, Stream, mix64

BACKENDS = ("idealized", "leaky", "cnf")


class WeError(Exception):
    pass


class CorruptCiphertext(WeError):
    """Payload failed to parse or failed its integrity check."""


class UnboundRelation(WeError):
    """Ciphertext has no relation attached and none can be rebuilt."""


def _fold_bytes(data: bytes) -> int:
    state = len(data) & MASK64
    for off in range(0, len(data), 8):
        chunk = int.from_bytes(data[off:off + 8], "little")
        state = mix64(state ^ chunk)
    return state


def _keystream_xor(key: bytes, data: bytes) -> bytes:
    stream = Stream(_fold_bytes(key))
    return bytes(b ^ s for b, s in zip(data, stream.bytes(len(data))))


def checksum64(data: bytes) -> int:
    return mix64(_fold_bytes(data) ^ 0xC0DE)


@dataclass
class WECiphertext:
    """A ciphertext envelope.  One from :func:`we_encrypt` is built without
    ``payload`` and ``instance_digest``: each is rendered from ``fields`` and
    the encrypter's relation on its first read, then cached, so every byte
    equals the eager rendering."""

    backend: str
    instance_digest: str
    msg_len: int
    payload: bytes
    relation: object | None = field(default=None, compare=False, repr=False)
    # parse_payload(self) but "relation" and "v"; set only with the relation
    fields: dict | None = field(default=None, init=False, compare=False, repr=False)

    def __getattr__(self, name):  # reached only while an envelope attribute is unset
        if name == "payload":
            value = _payload(self.fields, self.relation.describe())
        elif name == "instance_digest":
            value = self.relation.instance_digest()
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def to_json(self) -> dict:
        return {
            "backend": self.backend,
            "instance_digest": self.instance_digest,
            "msg_len": self.msg_len,
            "payload": self.payload.hex(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "WECiphertext":
        backend = serde.require(obj, "backend", str)
        if unknown := sorted(obj.keys() - {"backend", "instance_digest", "msg_len", "payload"}):
            raise ValueError(f"unknown ciphertext keys {unknown}")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        msg_len = serde.require(obj, "msg_len", int)
        if msg_len < 1:
            raise ValueError("msg_len must be positive")
        return cls(
            backend=backend,
            instance_digest=serde.require(obj, "instance_digest", str),
            msg_len=msg_len,
            payload=bytes.fromhex(serde.require(obj, "payload", str)),
        )


def _payload(fields: dict, description: dict) -> bytes:
    return serde.canonical_json_bytes({**fields, "relation": description, "v": 1})


def parse_payload(ct: WECiphertext) -> dict:
    """The payload object; CorruptCiphertext unless it is a version-1 payload
    with exactly the fields its backend writes, as hex strings: leaky has an
    8-byte nonce and one of plain/noise, the others key, body and check."""
    try:
        obj = json.loads(ct.payload)
    except (ValueError, UnicodeDecodeError) as exc:
        raise CorruptCiphertext(f"unparseable payload: {exc}") from exc
    leaky = ct.backend == "leaky"
    fields = ("nonce", "plain", "noise") if leaky else ("key", "body", "check")
    if (not isinstance(obj, dict) or obj.keys() != {*fields, "relation", "v"}
            or type(obj["v"]) is not int or obj["v"] != 1 or not isinstance(obj["relation"], dict)):
        raise CorruptCiphertext("unparseable payload: bad version, fields or relation")
    try:
        raw = [bytes.fromhex(obj[f]) for f in fields if obj[f] is not None]
    except (TypeError, ValueError) as exc:
        raise CorruptCiphertext(f"unparseable payload field: {exc}") from exc
    if len(raw) != 3 - leaky or leaky and (obj["nonce"] is None or len(raw[0]) != 8):
        raise CorruptCiphertext("unparseable payload: a field is null where hex is due")
    return obj


def load_relation(ct: WECiphertext):
    """The relation bound to ``ct``, else the one its payload embeds, loaded and
    bound; without a cached parse, parses the payload (corrupt unless it is the
    canonical rendering of its fields and that relation) and caches it."""
    if ct.fields is not None:
        return ct.relation
    obj, relation = parse_payload(ct), ct.relation
    if relation is None:
        from .circuits import CnfMPrimeRelation  # the relation layers sit above this one
        from .induced import MPrimeInstance, MPrimeRelation

        tag = obj["relation"].get("type")
        loader = next((c for c in (MPrimeRelation, CnfMPrimeRelation) if c.tag == tag), None)
        if loader is None:
            raise UnboundRelation(f"no loader for relation type {tag!r}")
        try:
            relation = loader(MPrimeInstance.from_json(obj["relation"]["instance"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptCiphertext(f"embedded relation does not load: {exc!r}") from exc
        if relation.instance_digest() != ct.instance_digest:
            raise CorruptCiphertext("embedded relation disagrees with the instance digest")
    fields = {f: v for f, v in obj.items() if f not in ("relation", "v")}
    if _payload(fields, relation.describe()) != ct.payload:
        raise CorruptCiphertext("payload is not the canonical rendering of its relation")
    ct.relation, ct.fields = relation, fields
    return relation


def we_encrypt(backend: str, lam: int, relation, message: bytes, rng: Stream) -> WECiphertext:
    """Encrypt ``message`` relative to the relation's instance."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if lam < 8:
        raise ValueError("security parameter must be >= 8")
    if not message:
        raise ValueError("message must be non-empty")
    if backend == "leaky":
        fields = {"nonce": rng.bytes(8).hex(), "plain": message.hex(), "noise": None}
        if not relation.in_language():
            # Instance outside the language: the payload distribution is
            # independent of the message (soundness holds by construction).
            fields.update(plain=None, noise=rng.bytes(len(message)).hex())
    else:
        key = rng.bytes(max(8, (lam + 7) // 8))
        fields = {
            "key": key.hex(),
            "body": _keystream_xor(key, message).hex(),
            "check": f"{checksum64(message):016x}",
        }
    ct = object.__new__(WECiphertext)  # payload and instance_digest unset until read
    ct.backend, ct.msg_len, ct.relation, ct.fields = backend, len(message), relation, fields
    return ct


def we_decrypt(ct: WECiphertext, witness) -> bytes | None:
    """The message if the witness satisfies the bound instance, else None."""
    relation = load_relation(ct)
    obj = ct.fields
    if not relation.check(witness):
        return None
    if ct.backend == "leaky":
        if obj["plain"] is None:
            # check() accepted but the instance was recorded as outside
            # the language; the relation is inconsistent.
            raise CorruptCiphertext("leaky payload has no plaintext for a valid witness")
        message = bytes.fromhex(obj["plain"])
    else:
        message = _keystream_xor(bytes.fromhex(obj["key"]), bytes.fromhex(obj["body"]))
        if f"{checksum64(message):016x}" != obj["check"]:
            raise CorruptCiphertext("checksum mismatch")
    if len(message) != ct.msg_len:
        raise CorruptCiphertext("message length disagrees with the envelope")
    return message


def leak_message(ct: WECiphertext) -> bytes | None:
    """Read the leaky backend's embedded plaintext without any witness.

    Returns None for other backends or when nothing leaked (instance
    outside the language).  This is the harness's "genuine advantage"
    hook, not part of the WE contract.
    """
    if ct.backend != "leaky":
        return None
    try:
        plain = (ct.fields or parse_payload(ct))["plain"]
    except CorruptCiphertext:
        return None
    return None if plain is None else bytes.fromhex(plain)
