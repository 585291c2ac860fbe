"""Bit-string and hash primitive tests."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from pdamr.bits import Bits, block_stream, fnv1a64, le64

# published FNV-1a 64-bit reference values
FNV_VECTORS = {
    b"": 0xCBF29CE484222325,
    b"a": 0xAF63DC4C8601EC8C,
    b"b": 0xAF63DF4C8601F1A5,
    b"foobar": 0x85944171F73967E8,
}


@pytest.mark.parametrize("data,expected", sorted(FNV_VECTORS.items()))
def test_fnv1a64_reference_vectors(data, expected):
    assert fnv1a64(data) == expected


def test_le64():
    assert le64(0) == b"\x00" * 8
    assert le64(1) == b"\x01" + b"\x00" * 7
    assert le64(2**64 + 5) == le64(5)
    assert le64(-1) == b"\xff" * 8


def test_bits_basics():
    b = Bits(0b1011, 4)
    assert len(b) == 4
    assert b ^ Bits(0b1111, 4) == Bits(0b0100, 4)
    assert b.split(2) == [Bits(0b10, 2), Bits(0b11, 2)]
    assert b.to_bytes() == b"\xb0"


def test_bits_validation():
    with pytest.raises(ValueError):
        Bits(4, 2)
    with pytest.raises(ValueError):
        Bits(0, -1)
    with pytest.raises(ValueError):
        Bits(0b101, 3) ^ Bits(0b01, 2)
    with pytest.raises(ValueError):
        Bits(0b101, 3).split(2)


def test_to_bytes_pads_trailing_bits():
    # 12 bits pack into 2 bytes with 4 zero bits at the end
    assert Bits(0xABC, 12).to_bytes() == b"\xab\xc0"


bit_strings = st.integers(min_value=0, max_value=2**96 - 1).flatmap(
    lambda v: st.integers(min_value=v.bit_length(), max_value=128).map(
        lambda n: Bits(v, n)))


@given(bit_strings, st.integers(min_value=1, max_value=6))
def test_split_concat_roundtrip(bits, parts):
    if bits.nbits % parts or bits.nbits == 0:
        return
    assert Bits.concat(bits.split(parts)) == bits


@given(bit_strings)
def test_xor_involution(bits):
    zero = Bits(0, bits.nbits)
    assert bits ^ bits == zero
    assert bits ^ zero == bits


def test_block_stream_first_block():
    header, payload = le64(3) + le64(9), b"xyz"
    first = fnv1a64(header + le64(0) + payload)
    assert block_stream(header, payload, 64) == Bits(first, 64)
    # shorter requests are prefixes
    assert block_stream(header, payload, 10).value == first >> 54


def test_block_stream_prefix_property():
    header = le64(1)
    long = block_stream(header, b"payload", 200)
    for n in (0, 1, 63, 64, 65, 128, 199):
        short = block_stream(header, b"payload", n)
        assert short.value == (long.value >> (200 - n)) if n else short.nbits == 0


def test_block_stream_avalanche():
    # flipping one payload bit changes the stream
    a = block_stream(le64(1), b"\x00\x00", 128)
    b = block_stream(le64(1), b"\x00\x01", 128)
    assert a != b


def per_block_stream(header, payload, nbits):
    """block_stream by its definition: one scalar FNV-1a hash per block."""
    nblocks = -(-nbits // 64)
    value = 0
    for j in range(nblocks):
        value = (value << 64) | fnv1a64(header + le64(j) + payload)
    return Bits(value >> (nblocks * 64 - nbits), nbits)


@given(st.binary(max_size=24), st.binary(max_size=300),
       st.integers(min_value=0, max_value=700))
def test_block_stream_matches_per_block_definition(header, payload, nbits):
    assert block_stream(header, payload, nbits) == per_block_stream(header, payload, nbits)


ALL_BYTES = bytes(range(256))


@pytest.mark.parametrize("nbits", [0, 1, 63, 64, 65, 100, 127, 128, 129, 192, 640, 700])
@pytest.mark.parametrize("header,payload", [
    (le64(5) + le64(6), b"xyz"),
    (b"", b"xyz"),
    (le64(5), b""),
    (b"", b""),
    (le64(7), ALL_BYTES[::-1] + ALL_BYTES),
], ids=["plain", "empty-header", "empty-payload", "both-empty", "all-byte-values"])
def test_block_stream_lanes_match_scalar_blocks(header, payload, nbits):
    # 1-block (n <= 64), 2-block (65..128) and longer streams
    assert block_stream(header, payload, nbits) == per_block_stream(header, payload, nbits)


def test_block_stream_rejects_negative_length():
    with pytest.raises(ValueError, match="negative bit length"):
        block_stream(b"", b"", -1)


def test_block_stream_pinned_digest():
    # computed with the scalar one-hash-per-block implementation
    stream = block_stream(le64(1) + le64(2), ALL_BYTES * 8, 8192)
    assert (hashlib.sha256(stream.to_bytes()).hexdigest()
            == "c06641f5d04d99bce1cc0a0f53786fae12d23493d28998c97e4ce26357127178")
