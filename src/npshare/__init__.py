"""Secret sharing for monotone-NP access structures, desk scale.

A dealer commits each party to its index, witness-encrypts the secret
relative to the commitment vector, and hands party i the pair
(opening_i, ciphertext).  A subset reconstructs by presenting its
openings together with an NP witness that it is qualified.  The package
also ships the full security-experiment harness (the dver/mest/D'
reduction, the hybrid locator and the definition-equivalence
transformations) and a verifier-to-CNF compiler with its own SAT
oracles.

Nothing here is production cryptography: the witness-encryption
backends model the functionality so the construction and its reduction
can be executed and measured.
"""

from .commitments import (
    CRS,
    Commitment,
    Opening,
    commit,
    crs_gen,
    prg_splitmix64,
    prg_toy,
    sample_opening,
    supports_disjoint,
    verify_opening,
)
from .induced import (
    MPrimeInstance,
    MPrimeRelation,
    MPrimeWitness,
    assemble_witness,
    derive_characteristic,
    exhaustive_witness_search,
    mprime_verify,
)
from .rng import Stream, derive_seed, mix64
from .scheme import (
    Dealing,
    MissingShareError,
    MixedDealingError,
    Share,
    recon,
    setup,
    share_parse,
    share_serialize,
    shares_of,
)
from .structures import (
    AccessStructure,
    MonotoneCircuit,
    PartySet,
    check_monotone,
    circuit_structure,
    edge_index,
    evaluate,
    hamiltonian_structure,
    matching_structure,
    party_edge,
    threshold_structure,
    verify,
)
from .we import WECiphertext, leak_message, we_decrypt, we_encrypt
from . import circuits, cnf, harness, sat

__all__ = [
    "AccessStructure", "CRS", "Commitment", "Dealing", "MPrimeInstance",
    "MPrimeRelation", "MPrimeWitness", "MissingShareError", "MixedDealingError",
    "MonotoneCircuit", "Opening", "PartySet", "Share", "Stream",
    "WECiphertext", "assemble_witness", "check_monotone", "circuit_structure",
    "circuits", "cnf", "commit", "crs_gen", "derive_characteristic", "derive_seed",
    "edge_index", "evaluate", "exhaustive_witness_search", "hamiltonian_structure",
    "harness", "leak_message", "matching_structure", "mix64", "mprime_verify",
    "party_edge", "prg_splitmix64", "prg_toy", "recon", "sample_opening", "sat",
    "setup", "share_parse", "share_serialize", "shares_of", "supports_disjoint",
    "threshold_structure", "verify", "verify_opening", "we_decrypt", "we_encrypt",
]
