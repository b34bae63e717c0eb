"""Canonical serialization helpers shared across the package.

All JSON emitted by the library goes through :func:`canonical_json_bytes`
(sorted keys, no whitespace) so that digests and byte-identity checks are
stable.  Bit strings are carried as hex of their little-endian byte
representation; the bit length is always known from context (CRS
parameters), so leading zero bits survive round trips.
"""

from __future__ import annotations

import hashlib
import json


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def require(obj, key: str, kind: type):
    """``obj[key]``, checked to exist and be a ``kind``; ValueError otherwise.

    Guards parsers of files read from outside the program, so a malformed
    file surfaces as a ValueError rather than a KeyError or TypeError.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{key!r} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def int_to_hex(value: int, nbits: int) -> str:
    """Hex of the little-endian byte encoding of a ``nbits``-bit integer."""
    if value < 0 or (nbits >= 0 and value >> nbits):
        raise ValueError(f"value does not fit in {nbits} bits")
    nbytes = (nbits + 7) // 8
    return value.to_bytes(nbytes, "little").hex()


def hex_to_int(text: str, nbits: int) -> int:
    raw = bytes.fromhex(text)
    if len(raw) != (nbits + 7) // 8:
        raise ValueError(f"expected {(nbits + 7) // 8} bytes for {nbits} bits, got {len(raw)}")
    value = int.from_bytes(raw, "little")
    if nbits % 8 and value >> nbits:
        raise ValueError("padding bits are not zero")
    return value
