"""Bit-exact binary strings and the FNV-1a block stream behind synthetic workloads.

Every payload the shuffle engine touches (files, intermediate values, signals)
is a plain bit string. Lengths are not required to be byte multiples, so the
representation here is an integer plus an explicit bit count, with the first
bit of the string stored in the most significant position. ``pack`` and
``unpack`` are the one rule that lays equal-width values end to end this way
(blocks, payloads and signals alike), and ``msb_bytes`` the one byte padding.

``block_stream`` hashes the blocks of a stream side by side, each in one lane
of a packed int. A lane is as wide as one FNV-1a step needs and no wider: a
64-bit state times the 41-bit prime stays below 2**105, so 14 bytes hold the
product and no carry reaches the next lane. The block index LE64(j) is
hashed in lanes too, one packed step per index byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

FNV64_OFFSET = 14695981039346656037
FNV64_PRIME = 1099511628211

_MASK64 = (1 << 64) - 1
_BYTE_VALUES = tuple(range(256))
# bytes of one lane: the widest product of a step, (2**64 - 1) * FNV64_PRIME
_LANE_BYTES = -(-(64 + FNV64_PRIME.bit_length()) // 8)


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


def _lane_hashes(state: int, payload: bytes, nblocks: int) -> int:
    """``pack`` of the 64-bit FNV-1a hashes of LE64(j) || payload for j in
    0..nblocks-1, each started from ``state``: one ``_LANE_BYTES``-byte lane
    per block, lane 0 most significant. Step k of the index XORs byte k of
    every lane's LE64(j) in at once; it is 0 in every lane when nblocks <=
    256**k, so those steps only multiply."""
    rep = int.from_bytes((bytes(_LANE_BYTES - 1) + b"\x01") * nblocks, "big")
    index = struct.pack(f"<{nblocks}Q", *range(nblocks))
    lanes = bytearray(_LANE_BYTES * nblocks)
    steps = [0] * 8
    for k in range(-(-(nblocks - 1).bit_length() // 8)):
        lanes[_LANE_BYTES - 1::_LANE_BYTES] = index[k::8]
        steps[k] = int.from_bytes(lanes, "big")
    mask = _MASK64 * rep
    packed = _fnv_update(state * rep, range(8), steps, mask)
    packed = _fnv_update(packed, payload, {byte: byte * rep for byte in set(payload)}, mask)
    raw = packed.to_bytes(_LANE_BYTES * nblocks, "big")
    hashes = bytearray(8 * nblocks)
    for i in range(8):
        hashes[i::8] = raw[_LANE_BYTES - 8 + i::_LANE_BYTES]
    return int.from_bytes(hashes, "big")


def block_stream(header: bytes, payload: bytes, nbits: int) -> Bits:
    """First ``nbits`` of the stream b_0 || b_1 || ... where block j is the
    64-bit FNV-1a hash of header || LE64(j) || payload, appended MSB first.

    This single construction generates synthetic files (empty payload),
    map outputs (payload = file bytes) and reduce outputs (payload =
    concatenated intermediate values).

    Every block hashes the same header and payload, so a stream of two or
    more blocks hashes the header once, then the block indices and the
    payload once for all blocks together (``_lane_hashes``): block j is lane
    j of one packed int. A lane is 14 bytes, the fewest that hold a 64-bit
    state times the 41-bit prime (below 2**105), so no carry crosses a lane
    and each lane follows its own scalar FNV-1a.
    """
    if nbits < 0:
        raise ValueError("negative bit length")
    nblocks = -(-nbits // 64)
    if nblocks == 0:
        return Bits(0, 0)
    if nblocks == 1:
        return Bits(fnv1a64(header + le64(0) + payload) >> (64 - nbits), nbits)
    state = _fnv_update(FNV64_OFFSET, header, _BYTE_VALUES, _MASK64)
    return Bits(_lane_hashes(state, payload, nblocks) >> (nblocks * 64 - nbits), nbits)
