"""The witness-gated secret-sharing scheme.

SETUP samples one opening per party, commits party i to the value i,
witness-encrypts the secret relative to the commitment vector, and hands
party i the pair (opening_i, ciphertext).  RECON rebuilds the
induced-language witness from the openings of a subset X (absent
elsewhere) plus an inner witness that X is qualified, and decrypts.

:meth:`SchemeContext.deal`, on the scheme pinned to one CRS, is the one
share construction: SETUP and the harness's dver both deal through it,
so under Z = A0 dver's shares are SETUP's by construction.

The commitment vector (the public instance) is emitted alongside the
shares rather than inside each share; every share carries the CRS its
opening is read under, checked against the ciphertext's instance.
"""

from __future__ import annotations

from dataclasses import dataclass
import json

from . import serde
from .circuits import CnfMPrimeRelation
from .commitments import CRS, Commitment, Opening, commitment_list, crs_gen
from .induced import MPrimeInstance, MPrimeRelation, assemble_witness
from .rng import Stream, derive_seed
from .structures import AccessStructure, PartySet
from .we import WECiphertext, load_relation, we_decrypt, we_encrypt

SHARE_FORMAT = "npshare.share/2"
DEALING_FORMAT = "npshare.dealing/1"


class MixedDealingError(ValueError):
    """Shares from different dealings were mixed (their CRS or ciphertext differ)."""


class MissingShareError(ValueError):
    """A member of X has no share in the provided subset."""


# not frozen: built n times per dealing, never mutated, and frozen __init__ costs 2-3x
@dataclass(unsafe_hash=True)
class Share:
    party: int
    opening: Opening
    ciphertext: WECiphertext
    crs: CRS

    def to_json(self) -> dict:
        return {
            "format": SHARE_FORMAT,
            "party": self.party,
            "opening": self.opening.to_json(self.crs),
            "ciphertext": self.ciphertext.to_json(),
            "crs": self.crs.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Share":
        if serde.require(obj, "format", str) != SHARE_FORMAT:
            raise ValueError(f"unsupported share format {obj['format']!r}")
        crs = CRS.from_json(serde.require(obj, "crs", dict))
        party = serde.require(obj, "party", int)
        if not 1 <= party <= crs.n:
            raise ValueError(f"party {party} outside 1..{crs.n}")
        return cls(
            party=party,
            opening=Opening.from_json(serde.require(obj, "opening", str), crs),
            ciphertext=WECiphertext.from_json(serde.require(obj, "ciphertext", dict)),
            crs=crs,
        )


@dataclass(unsafe_hash=True)
class Dealing:
    shares: tuple[Share, ...]
    public: MPrimeInstance

    def to_json(self) -> dict:
        """The public record ``npshare deal`` writes as ``dealing.json``."""
        return {"format": DEALING_FORMAT, "instance": self.public.to_json()}


def relation_for(inst: MPrimeInstance, backend: str, known=()):
    """The relation object a backend encrypts against; the leaky one does not
    invert the positions in ``known``, which the caller knows to open."""
    if backend == "cnf":
        return CnfMPrimeRelation(inst)
    return MPrimeRelation(inst, known if backend == "leaky" else ())


def default_expansion(backend: str) -> str:
    """The CNF backend needs the circuit-friendly "toy" expansion."""
    return "toy" if backend == "cnf" else "splitmix64"


@dataclass
class SchemeContext:
    """The scheme pinned to one CRS, as SETUP and the commitment games use it."""

    structure: AccessStructure
    crs: CRS
    lam: int = 16
    backend: str = "idealized"

    def __post_init__(self):
        if self.crs.n != self.structure.n:
            raise ValueError("CRS and structure disagree on n")

    @classmethod
    def create(cls, structure: AccessStructure, seed: int, *, k: int = 8,
               backend: str = "idealized", lam: int = 16,
               expansion: str | None = None) -> "SchemeContext":
        crs = crs_gen(structure.n, k, Stream(derive_seed(derive_seed(seed, 0xC125), 0)),
                      expansion=expansion or default_expansion(backend))
        return cls(structure=structure, crs=crs, lam=lam, backend=backend)

    @property
    def n(self) -> int:
        return self.structure.n

    def deal(self, secret: bytes, rng: Stream, commitments=None,
             X: PartySet | None = None) -> Dealing:
        """Deal ``secret``.  Draws, in order: an opening for each of parties
        1..n (one ``rng.bits(ell * k)`` each), then the encryption
        randomness; party i is committed to i.  Given input ``commitments``
        and ``X`` (read only with them), a party outside X keeps its input
        commitment and gets no share, and its opening's draw is dropped; the
        input commitment of a member of X is never read.  The positions the
        dealer commits itself are known to open, so the leaky relation does
        not invert them; with X the full set it makes no inversion call."""
        if not secret:
            raise ValueError("secret must be non-empty")
        n, crs = self.n, self.crs
        if commitments is None:
            commitments, X = (None,) * n, PartySet.full(n)
        if len(commitments) != n or X.n != n:
            raise ValueError(f"expected {n} input commitments and a party set over {n}"
                             f" parties, got {len(commitments)} and {X.n}")
        members, openings = X.members, {}
        fresh = commitment_list([i if i in members else None for i in range(1, n + 1)],
                                crs, rng, openings)
        inst = MPrimeInstance(crs=crs, structure=self.structure, commitments=tuple(
            com if com is not None else given for com, given in zip(fresh, commitments)))
        ct = self.encrypt(inst, secret, rng, known=openings.keys())
        return Dealing(tuple([Share(i, op, ct, crs) for i, op in openings.items()]), inst)

    def a0_commitments(self, rng: Stream) -> tuple[Commitment, ...]:
        return commitment_list(range(1, self.n + 1), self.crs, rng)

    def a1_commitments(self, rng: Stream) -> tuple[Commitment, ...]:
        return commitment_list(range(self.n + 1, 2 * self.n + 1), self.crs, rng)

    def encrypt(self, inst: MPrimeInstance, secret: bytes, rng: Stream, known=()):
        return we_encrypt(self.backend, self.lam, relation_for(inst, self.backend, known), secret, rng)


def setup(
    structure: AccessStructure,
    secret: bytes,
    rng: Stream,
    *,
    lam: int = 16,
    k: int = 8,
    backend: str = "idealized",
    expansion: str | None = None,
) -> Dealing:
    """Deal ``secret`` for ``structure`` through :meth:`SchemeContext.deal`,
    on a CRS drawn first.  The CNF backend defaults to the "toy" expansion,
    the one its compiled relation matches."""
    crs = crs_gen(structure.n, k, rng, expansion=expansion or default_expansion(backend))
    return SchemeContext(structure, crs, lam, backend).deal(secret, rng)


def shares_of(dealing: Dealing, X: PartySet) -> tuple[Share, ...]:
    """The sub-sequence of shares held by the members of X."""
    return tuple(s for s in dealing.shares if s.party in X)


def recon(shares, X: PartySet, inner_witness) -> bytes | None:
    """Decrypt with the openings of X and an inner witness.

    Returns the secret when the witness attests M(X) = 1 (probability 1
    by the completeness of the backend), otherwise None.  Shares from
    different dealings raise MixedDealingError, which is distinct from
    the plain rejection.  A share CRS that is not the ciphertext's
    instance's raises ValueError.
    """
    shares = tuple(shares)
    if not shares:
        raise MissingShareError("no shares provided")
    crs, ct = shares[0].crs, shares[0].ciphertext
    for s in shares[1:]:
        if s.crs != crs or s.ciphertext != ct:
            raise MixedDealingError("shares come from different dealings")
    if X.n != crs.n:
        raise ValueError("party set size disagrees with the dealing")
    by_party = {s.party: s.opening for s in shares}
    missing = [i for i in X.sorted() if i not in by_party]
    if missing:
        raise MissingShareError(f"no share for parties {missing}")
    witness = assemble_witness(X, by_party, inner_witness)
    if load_relation(ct).instance.crs != crs:
        raise ValueError("share crs disagrees with the instance in its ciphertext")
    return we_decrypt(ct, witness)


def share_serialize(share: Share) -> bytes:
    return serde.canonical_json_bytes(share.to_json())


def share_parse(data: bytes) -> Share:
    if not data:
        raise ValueError("empty share data")
    try:
        obj = json.loads(data)
    except ValueError as exc:
        raise ValueError(f"malformed share JSON: {exc}") from exc
    return Share.from_json(obj)
