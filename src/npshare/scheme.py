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
shares rather than inside each share; every share carries a header with
the CRS and a structure digest, checked against the ciphertext's instance.
"""

from __future__ import annotations

from dataclasses import dataclass
import json

from . import serde
from .commitments import (CRS, Commitment, Opening, commit, commitment_list, crs_gen,
                          sample_opening)
from .induced import MPrimeInstance, MPrimeRelation, assemble_witness
from .rng import Stream, derive_seed
from .structures import AccessStructure, PartySet
from .we import WECiphertext, load_relation, we_decrypt, we_encrypt

SHARE_FORMAT = "npshare.share/1"
DEALING_FORMAT = "npshare.dealing/1"


class MixedDealingError(ValueError):
    """Shares from different dealings were mixed (header mismatch)."""


class MissingShareError(ValueError):
    """A member of X has no share in the provided subset."""


@dataclass(frozen=True)
class ShareHeader:
    n: int
    structure_digest: str
    crs: CRS

    def to_json(self) -> dict:
        return {"n": self.n, "structure_digest": self.structure_digest, "crs": self.crs.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "ShareHeader":
        n = serde.require(obj, "n", int)
        crs = CRS.from_json(serde.require(obj, "crs", dict))
        if crs.n != n:
            raise ValueError("header n disagrees with its CRS")
        return cls(n, serde.require(obj, "structure_digest", str), crs)


@dataclass(frozen=True)
class Share:
    party: int
    opening: Opening
    ciphertext: WECiphertext
    header: ShareHeader

    def to_json(self) -> dict:
        return {
            "format": SHARE_FORMAT,
            "party": self.party,
            "opening": self.opening.to_json(self.header.crs),
            "ciphertext": self.ciphertext.to_json(),
            "header": self.header.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Share":
        if serde.require(obj, "format", str) != SHARE_FORMAT:
            raise ValueError(f"unsupported share format {obj['format']!r}")
        header = ShareHeader.from_json(serde.require(obj, "header", dict))
        party = serde.require(obj, "party", int)
        if not 1 <= party <= header.n:
            raise ValueError(f"party {party} outside 1..{header.n}")
        return cls(
            party=party,
            opening=Opening.from_json(serde.require(obj, "opening", str), header.crs),
            ciphertext=WECiphertext.from_json(serde.require(obj, "ciphertext", dict)),
            header=header,
        )


@dataclass(frozen=True)
class Dealing:
    shares: tuple[Share, ...]
    public: MPrimeInstance

    def to_json(self) -> dict:
        return {
            "format": DEALING_FORMAT,
            "instance": self.public.to_json(),
            "shares": [s.to_json() for s in self.shares],
        }


def relation_for(inst: MPrimeInstance, backend: str):
    """The relation object a backend encrypts against."""
    if backend == "cnf":
        from .circuits import CnfMPrimeRelation

        return CnfMPrimeRelation(inst)
    return MPrimeRelation(inst)


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
        self.header = ShareHeader(
            n=self.structure.n, structure_digest=self.structure.digest(), crs=self.crs
        )

    @classmethod
    def create(cls, structure: AccessStructure, seed: int, *, k: int = 8,
               backend: str = "idealized", lam: int = 16,
               expansion: str | None = None) -> "SchemeContext":
        crs = crs_gen(structure.n, k, Stream(derive_seed(seed, 0xC125)),
                      expansion=expansion or default_expansion(backend))
        return cls(structure=structure, crs=crs, lam=lam, backend=backend)

    @property
    def n(self) -> int:
        return self.structure.n

    def deal(self, secret: bytes, rng: Stream, commitments=None,
             X: PartySet | None = None) -> Dealing:
        """Deal ``secret``.  Draws, in order: an opening for each of parties
        1..n (ell seeds each, low block first), then the encryption
        randomness; party i is committed to i.  Given input ``commitments``
        and ``X`` (read only with them), a party outside X keeps its input
        commitment and gets no share, and its opening's words are dropped."""
        if not secret:
            raise ValueError("secret must be non-empty")
        n, crs = self.n, self.crs
        if commitments is None:
            commitments, X = (None,) * n, PartySet.full(n)
        if len(commitments) != n:
            raise ValueError(f"expected {n} input commitments")
        coms, members, openings = list(commitments), X.members, {}
        for i in range(1, n + 1):
            if i in members:
                openings[i] = sample_opening(crs, rng)
                coms[i - 1] = commit(i, openings[i], crs)
            else:
                for _ in range(crs.ell * -(-crs.k // 64)):  # the draws of one sample_opening
                    rng.next64()
        inst = MPrimeInstance(crs=crs, commitments=tuple(coms), structure=self.structure)
        ct = self.encrypt(inst, secret, rng)
        return Dealing(public=inst, shares=tuple(
            Share(party=i, opening=op, ciphertext=ct, header=self.header)
            for i, op in openings.items()))

    def a0_commitments(self, rng: Stream) -> tuple[Commitment, ...]:
        return commitment_list(range(1, self.n + 1), self.crs, rng)

    def a1_commitments(self, rng: Stream) -> tuple[Commitment, ...]:
        return commitment_list(range(self.n + 1, 2 * self.n + 1), self.crs, rng)

    def encrypt(self, inst: MPrimeInstance, secret: bytes, rng: Stream):
        return we_encrypt(self.backend, self.lam, relation_for(inst, self.backend), secret, rng)


def setup(
    structure: AccessStructure,
    secret: bytes,
    rng: Stream,
    *,
    lam: int = 16,
    k: int = 8,
    backend: str = "idealized",
    crs: CRS | None = None,
    expansion: str | None = None,
) -> Dealing:
    """Deal ``secret`` for ``structure`` through :meth:`SchemeContext.deal`,
    on a CRS drawn first unless ``crs`` is given.  The CNF backend defaults
    to the "toy" expansion, the one its compiled relation matches."""
    if crs is None:
        crs = crs_gen(structure.n, k, rng, expansion=expansion or default_expansion(backend))
    elif crs.n != structure.n:
        raise ValueError("provided CRS is for a different party count")
    return SchemeContext(structure, crs, lam, backend).deal(secret, rng)


def shares_of(dealing: Dealing, X: PartySet) -> tuple[Share, ...]:
    """The sub-sequence of shares held by the members of X."""
    return tuple(s for s in dealing.shares if s.party in X)


def recon(shares, X: PartySet, inner_witness) -> bytes | None:
    """Decrypt with the openings of X and an inner witness.

    Returns the secret when the witness attests M(X) = 1 (probability 1
    by the completeness of the backend), otherwise None.  Shares from
    different dealings raise MixedDealingError, which is distinct from
    the plain rejection.  A header whose CRS or structure digest is not
    the ciphertext's instance's raises ValueError.
    """
    shares = tuple(shares)
    if not shares:
        raise MissingShareError("no shares provided")
    header = shares[0].header
    for s in shares[1:]:
        if s.header != header or s.ciphertext != shares[0].ciphertext:
            raise MixedDealingError("shares come from different dealings")
    if X.n != header.n:
        raise ValueError("party set size disagrees with the dealing")
    by_party = {s.party: s.opening for s in shares}
    missing = [i for i in X.sorted() if i not in by_party]
    if missing:
        raise MissingShareError(f"no share for parties {missing}")
    witness = assemble_witness(X, by_party, inner_witness)
    inst = load_relation(shares[0].ciphertext).instance
    if inst.crs != header.crs or inst.structure.digest() != header.structure_digest:
        raise ValueError("share header disagrees with the instance in its ciphertext")
    return we_decrypt(shares[0].ciphertext, witness)


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
