"""The induced NP language over commitment vectors.

An instance is a CRS together with n commitments and an access
structure.  A witness is one opening-or-absent per position plus an
inner witness for the structure.  The characteristic vector of a
witness sets x_i = 1 exactly when opening i is present and opens
commitment i to the value i; the witness is accepted when the inner
witness attests that the set {i : x_i = 1} is qualified.

An opening that is present but invalid is treated identically to an
absent one - that is the exact reading of the characteristic rule.  The
exhaustive search below is sound and complete at desk scale because
commitment blocks are independently invertible and every shipped
verifier is monotone in the party set (so it suffices to search the
maximal openable set).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import serde
from .commitments import (
    CRS,
    Commitment,
    Opening,
    opening_from_json,
    verify_opening,
)
from .structures import AccessStructure, PartySet, check_witness_budget, inner_witnesses, verify


# not frozen: built once per dealing, never mutated, and frozen __init__ costs 2-3x
@dataclass(unsafe_hash=True)
class MPrimeInstance:
    crs: CRS
    commitments: tuple[Commitment, ...]
    structure: AccessStructure

    def __post_init__(self):
        if self.crs.n != self.structure.n:
            raise ValueError("CRS and structure disagree on n")
        if len(self.commitments) != self.structure.n:
            raise ValueError(f"expected {self.structure.n} commitments")

    @property
    def n(self) -> int:
        return self.structure.n

    def to_json(self) -> dict:
        return {
            "crs": self.crs.to_json(),
            "commitments": [c.to_json(self.crs) for c in self.commitments],
            "structure": self.structure.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MPrimeInstance":
        crs = CRS.from_json(obj["crs"])
        return cls(
            crs=crs,
            commitments=tuple(Commitment.from_json(c, crs) for c in obj["commitments"]),
            structure=AccessStructure.from_json(obj["structure"]),
        )

    def digest(self) -> str:
        return serde.sha256_hex(serde.canonical_json_bytes(self.to_json()))


@dataclass(frozen=True)
class MPrimeWitness:
    openings: tuple[Opening | None, ...]
    inner: object

    def __post_init__(self):
        if not all(o is None or isinstance(o, Opening) for o in self.openings):
            raise ValueError("openings must be Opening or None")


def derive_characteristic(inst: MPrimeInstance, openings) -> tuple[int, ...]:
    """x_i = 1 iff opening i is present and opens com_i to the value i."""
    openings = tuple(openings)
    if len(openings) != inst.n:
        raise ValueError(f"expected {inst.n} openings")
    return tuple(
        1 if verify_opening(i + 1, op, inst.crs, inst.commitments[i]) else 0
        for i, op in enumerate(openings)
    )


def mprime_verify(inst: MPrimeInstance, wit: MPrimeWitness) -> bool:
    """Accept iff the opened positions form a qualified set under the inner witness."""
    bits = derive_characteristic(inst, wit.openings)
    try:
        return verify(inst.structure, PartySet.from_bits(bits), wit.inner)
    except ValueError:
        return False


def assemble_witness(X: PartySet, openings_by_party, inner) -> MPrimeWitness:
    """Openings exactly for the members of X, the absent value elsewhere."""
    for i in sorted(X.members):
        if openings_by_party.get(i) is None:
            raise ValueError(f"no opening available for party {i}")
    return MPrimeWitness(inner=inner, openings=tuple(
        openings_by_party[i] if i in X else None for i in range(1, X.n + 1)))


def _openable(inst: MPrimeInstance, known=()) -> dict[int, int]:
    """``{i: Opening.bits}`` for the positions outside ``known`` opening to their
    own index, by one :meth:`CRS.invert` (no call if ``known`` holds every one);
    refused above the PRG table's k, then past the witness budget, whatever ``known`` is.
    Search over this set plus ``known``, the maximal one, is complete: verifiers are monotone."""
    inst.crs.prg_table  # the table's k bound refuses first, even with nothing to invert
    check_witness_budget(inst.structure)
    pairs = enumerate(inst.commitments, 1)
    pairs = [p for p in pairs if p[0] not in known] if known else pairs
    return inst.crs.invert(pairs) if pairs else {}


def exhaustive_witness_search(inst: MPrimeInstance) -> MPrimeWitness | None:
    """A witness iff one exists: openings for the maximal openable set and
    the first inner witness that set admits."""
    seeds = _openable(inst)
    for inner in inner_witnesses(inst.structure, seeds):
        return MPrimeWitness(inner=inner, openings=tuple(
            Opening(seeds[i]) if i in seeds else None for i in range(1, inst.n + 1)))
    return None


class MPrimeRelation:
    """Relation wrapper handed to the witness-encryption backends; ``tag``
    is the ``"type"`` of the JSON object :meth:`describe` returns, by which
    ``we.load_relation`` rebuilds it.  Nothing is cached here or on the
    instance: a ciphertext keeps the digest it reads.  ``known`` holds
    positions known to open to their own index (the dealer's own
    commitments); :meth:`in_language` does not invert them."""

    tag = "mprime"

    def __init__(self, instance: MPrimeInstance, known=()):
        self.instance, self.known = instance, known

    def instance_digest(self) -> str:
        return self.instance.digest()

    def check(self, witness) -> bool:
        if not isinstance(witness, MPrimeWitness):
            return False
        return mprime_verify(self.instance, witness)

    def in_language(self) -> bool:
        """``exhaustive_witness_search(instance) is not None``, building no witness."""
        inst = self.instance  # an inner witness may be None, so not any(...)
        for _ in inner_witnesses(inst.structure, self.known | _openable(inst, self.known).keys()):
            return True
        return False

    def describe(self) -> dict:
        return {"instance": self.instance.to_json(), "type": self.tag}


def witness_from_json(obj: dict, crs: CRS) -> MPrimeWitness:
    """``inner``, and ``openings``: one per party, hex or null (all null if absent)."""
    inner = obj.get("inner")
    if inner is not None:
        inner = tuple(tuple(e) if isinstance(e, list) else e for e in inner)
    openings = tuple(opening_from_json(o, crs) for o in obj.get("openings", (None,) * crs.n))
    if len(openings) != crs.n:
        raise ValueError(f"{len(openings)} openings for {crs.n} parties")
    return MPrimeWitness(openings=openings, inner=inner)
