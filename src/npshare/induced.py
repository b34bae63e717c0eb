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
from functools import cached_property

from . import serde, we
from .commitments import (
    CRS,
    Commitment,
    Opening,
    find_opening,
    opening_from_json,
    verify_opening,
)
from .structures import AccessStructure, PartySet, inner_witnesses, verify, witness_space_size


@dataclass(frozen=True)
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

    @cached_property
    def canonical_bytes(self) -> bytes:
        """``serde.canonical_json_bytes(self.to_json())``, rendered once, around
        the CRS's and structure's own pre-rendered bytes (keys in sorted order)."""
        coms = ",".join(f'"{c.to_json(self.crs)}"' for c in self.commitments)
        return b"".join((
            b'{"commitments":[', coms.encode("ascii"),
            b'],"crs":', self.crs.canonical_bytes,
            b',"structure":', self.structure.canonical_bytes, b"}",
        ))

    def digest(self) -> str:
        return serde.sha256_hex(self.canonical_bytes)


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
    out: list[Opening | None] = []
    for i in range(1, X.n + 1):
        if i in X:
            opening = openings_by_party.get(i)
            if opening is None:
                raise ValueError(f"no opening available for party {i}")
            out.append(opening)
        else:
            out.append(None)
    return MPrimeWitness(openings=tuple(out), inner=inner)


def openable_positions(inst: MPrimeInstance) -> dict[int, Opening]:
    """Positions whose commitment opens to its own index, with openings."""
    found = {}
    for i in range(1, inst.n + 1):
        opening = find_opening(i, inst.commitments[i - 1], inst.crs)
        if opening is not None:
            found[i] = opening
    return found


def exhaustive_witness_search(
    inst: MPrimeInstance, k: int | None = None, witness_budget: int = 250_000
) -> MPrimeWitness | None:
    """A witness iff one exists; sound and complete at desk scale.

    Per position, block-wise commitment inversion needs ell * 2^k work
    (refused above k = 10).  The inner witness is then searched over the
    maximal openable set, which is exhaustive since all shipped
    verifiers are monotone in the party set.  ``k``, when given, must
    agree with the instance CRS.
    """
    if k is not None and k != inst.crs.k:
        raise ValueError("k disagrees with the instance CRS")
    if inst.crs.k > 10:
        raise ValueError("exhaustive search limited to k <= 10")
    if witness_space_size(inst.structure) > witness_budget:
        raise ValueError("inner-witness space exceeds the search budget")
    openable = openable_positions(inst)
    x_star = PartySet.of(inst.n, openable)
    for inner in inner_witnesses(inst.structure, x_star):
        return MPrimeWitness(
            openings=tuple(openable.get(i) for i in range(1, inst.n + 1)),
            inner=inner,
        )
    return None


def instance_description(tag: str, inst: MPrimeInstance) -> bytes:
    """Canonical JSON of ``{"instance": inst.to_json(), "type": tag}``,
    spliced around the instance's pre-rendered bytes."""
    return b'{"instance":' + inst.canonical_bytes + f',"type":"{tag}"}}'.encode("ascii")


class MPrimeRelation:
    """Relation wrapper handed to the witness-encryption backends."""

    def __init__(self, instance: MPrimeInstance):
        self.instance = instance
        self._digest = instance.digest()
        self._in_language: bool | None = None

    def instance_digest(self) -> str:
        return self._digest

    def check(self, witness) -> bool:
        if not isinstance(witness, MPrimeWitness):
            return False
        return mprime_verify(self.instance, witness)

    def in_language(self) -> bool:
        if self._in_language is None:
            self._in_language = exhaustive_witness_search(self.instance) is not None
        return self._in_language

    def describe(self) -> bytes:
        return instance_description("mprime", self.instance)


we.register_relation_loader(
    "mprime", lambda desc: MPrimeRelation(MPrimeInstance.from_json(desc["instance"]))
)


def witness_from_json(obj: dict, crs: CRS) -> MPrimeWitness:
    inner = obj.get("inner")
    if inner is not None:
        inner = tuple(tuple(e) if isinstance(e, list) else e for e in inner)
    return MPrimeWitness(
        openings=tuple(opening_from_json(o, crs) for o in obj["openings"]),
        inner=inner,
    )
