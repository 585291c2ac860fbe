"""Bit-exact binary strings and the FNV-1a block stream behind synthetic workloads.

Every payload the shuffle engine touches (files, intermediate values, signals)
is a plain bit string. Lengths are not required to be byte multiples, so the
representation here is an integer plus an explicit bit count, with the first
bit of the string stored in the most significant position.
"""

from __future__ import annotations

from dataclasses import dataclass

FNV64_OFFSET = 14695981039346656037
FNV64_PRIME = 1099511628211

_MASK64 = (1 << 64) - 1
_BYTE_VALUES = tuple(range(256))


def _fnv_update(state: int, data: bytes, table, mask: int) -> int:
    """FNV-1a byte steps over ``data``: xor in ``table[byte]``, multiply by
    the prime, keep ``mask``. With the identity table and the 64-bit mask
    this is plain FNV-1a; with lane-replicated ones it steps every lane of a
    packed state at once."""
    for byte in data:
        state = ((state ^ table[byte]) * FNV64_PRIME) & mask
    return state


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    return _fnv_update(FNV64_OFFSET, data, _BYTE_VALUES, _MASK64)


def le64(value: int) -> bytes:
    """Encode an integer as 8 little-endian bytes (reduced modulo 2**64)."""
    return (value & _MASK64).to_bytes(8, "little")


@dataclass(frozen=True)
class Bits:
    """Immutable bit string of length ``nbits``; bit 0 is the most significant
    bit of ``value``."""

    value: int
    nbits: int

    def __post_init__(self):
        if self.nbits < 0:
            raise ValueError("negative bit length")
        if not 0 <= self.value < (1 << self.nbits):
            raise ValueError(f"value does not fit in {self.nbits} bits")

    def __len__(self) -> int:
        return self.nbits

    def __xor__(self, other: "Bits") -> "Bits":
        if self.nbits != other.nbits:
            raise ValueError(f"xor of unequal lengths ({self.nbits} vs {other.nbits})")
        return Bits(self.value ^ other.value, self.nbits)

    def split(self, parts: int) -> list["Bits"]:
        """Cut into ``parts`` contiguous equal-length pieces, first piece first."""
        if parts <= 0 or self.nbits % parts != 0:
            raise ValueError(f"cannot split {self.nbits} bits into {parts} equal parts")
        size = self.nbits // parts
        mask = (1 << size) - 1
        return [
            Bits((self.value >> (self.nbits - (i + 1) * size)) & mask, size)
            for i in range(parts)
        ]

    def to_bytes(self) -> bytes:
        """Pack MSB-first; unused low bits of the final byte are zero."""
        pad = -self.nbits % 8
        return (self.value << pad).to_bytes((self.nbits + pad) // 8, "big")

    @staticmethod
    def concat(pieces) -> "Bits":
        value, nbits = 0, 0
        for piece in pieces:
            value = (value << piece.nbits) | piece.value
            nbits += piece.nbits
        return Bits(value, nbits)


def block_stream(header: bytes, payload: bytes, nbits: int) -> Bits:
    """First ``nbits`` of the stream b_0 || b_1 || ... where block j is the
    64-bit FNV-1a hash of header || LE64(j) || payload, appended MSB first.

    This single construction generates synthetic files (empty payload),
    map outputs (payload = file bytes) and reduce outputs (payload =
    concatenated intermediate values).

    Every block hashes the same header and payload, so a stream of two or
    more blocks hashes the header once, and the payload once for all blocks
    together: block j is lane j of one packed int with a 128-bit slot per
    lane. A 64-bit state times the 41-bit prime stays below 2**105, so no
    carry crosses a slot, and each lane follows its own scalar FNV-1a.
    """
    if nbits < 0:
        raise ValueError("negative bit length")
    nblocks = -(-nbits // 64)
    if nblocks == 0:
        return Bits(0, 0)
    if nblocks == 1:
        return Bits(fnv1a64(header + le64(0) + payload) >> (64 - nbits), nbits)
    state = _fnv_update(FNV64_OFFSET, header, _BYTE_VALUES, _MASK64)
    packed = int.from_bytes(b"".join(
        bytes(8) + _fnv_update(state, le64(j), _BYTE_VALUES, _MASK64).to_bytes(8, "big")
        for j in range(nblocks)), "big")
    rep = int.from_bytes((bytes(15) + b"\x01") * nblocks, "big")
    table = {byte: byte * rep for byte in set(payload)}
    packed = _fnv_update(packed, payload, table, _MASK64 * rep)
    raw = packed.to_bytes(16 * nblocks, "big")
    value = int.from_bytes(b"".join(raw[i + 8:i + 16] for i in range(0, len(raw), 16)), "big")
    return Bits(value >> (nblocks * 64 - nbits), nbits)
