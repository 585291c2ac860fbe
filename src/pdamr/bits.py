"""Bit-exact binary strings and the SHAKE-256 block stream behind synthetic workloads.

Every payload the shuffle engine touches (files, intermediate values, signals)
is a plain bit string. Lengths are not required to be byte multiples, so the
representation here is an integer plus an explicit bit count, with the first
bit of the string stored in the most significant position. ``pack`` and
``unpack`` are the one rule that lays equal-width values end to end this way
(blocks, payloads and signals alike), and ``msb_bytes`` the one byte padding.

``block_stream`` is the one hash: the first ``nbits`` of the SHAKE-256
output of LE64(len(header)) || header || payload. The schemes are universal
in their map and reduce functions, so no load or report depends on which
hash this is; the extendable output gives any width from one call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1


def le64(value: int) -> bytes:
    """Encode an integer as 8 little-endian bytes (reduced modulo 2**64)."""
    return (value & _MASK64).to_bytes(8, "little")


def pack(values, width: int) -> int:
    """The ``width``-bit ``values`` end to end, values[0] most significant. The
    halves recurse, so n values cost O(log n) passes over the result, not n."""
    if len(values) < 2:
        return values[0] if values else 0
    half = len(values) // 2
    return pack(values[:half], width) << (len(values) - half) * width | pack(values[half:], width)


def unpack(value: int, n: int, width: int) -> list[int]:
    """The inverse of ``pack``: ``value`` cut into ``n`` ``width``-bit values, by halving."""
    if n < 2:
        return [value] if n else []
    half = n // 2
    low = (n - half) * width
    return unpack(value >> low, half, width) + unpack(value & (1 << low) - 1, n - half, width)


def msb_bytes(value: int, nbits: int) -> bytes:
    """The ``nbits`` bits of ``value`` as bytes, MSB first, the last byte zero-padded."""
    return (value << -nbits % 8).to_bytes(-(-nbits // 8), "big")


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
        return [Bits(x, size) for x in unpack(self.value, parts, size)]

    def to_bytes(self) -> bytes:
        """Pack MSB-first; unused low bits of the final byte are zero."""
        return msb_bytes(self.value, self.nbits)

    @staticmethod
    def concat(pieces) -> "Bits":
        value, nbits = 0, 0
        for piece in pieces:
            value = (value << piece.nbits) | piece.value
            nbits += piece.nbits
        return Bits(value, nbits)


def block_stream(header: bytes, payload: bytes, nbits: int) -> Bits:
    """First ``nbits`` of the SHAKE-256 output of LE64(len(header)) || header
    || payload, MSB first.

    This single construction generates synthetic files (empty payload),
    map outputs (payload = file bytes) and reduce outputs (payload =
    concatenated intermediate values). The length prefix keeps the header
    and payload apart, so no two (header, payload) pairs share an input.
    """
    if nbits < 0:
        raise ValueError("negative bit length")
    digest = hashlib.shake_256(le64(len(header)) + header + payload).digest(-(-nbits // 8))
    return Bits(int.from_bytes(digest, "big") >> (-nbits % 8), nbits)
