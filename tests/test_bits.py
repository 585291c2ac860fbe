"""Bit-string and hash primitive tests."""

import hashlib

import pytest
from hypothesis import example, given, strategies as st

from pdamr.bits import Bits, block_stream, le64, msb_bytes, pack, unpack


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


packings = st.integers(min_value=1, max_value=130).flatmap(
    lambda w: st.tuples(st.just(w), st.lists(st.integers(min_value=0, max_value=2**w - 1),
                                             min_size=1, max_size=300)))


@given(packings)
@example((7, [5]))
@example((3, [1, 0, 7]))
@example((130, [2**130 - 1] * 299))
def test_pack_is_the_bit_string_rule(packing):
    # each value's w binary digits end to end, the first value most significant
    width, xs = packing
    packed = pack(xs, width)
    assert packed == int("".join(format(x, f"0{width}b") for x in xs), 2)
    assert unpack(packed, len(xs), width) == xs


def test_pack_of_no_values_is_the_empty_string():
    assert pack([], 5) == 0 and unpack(0, 0, 5) == []


@given(bit_strings)
def test_msb_bytes_pads_the_bit_string(bits):
    # the bit string's digits, zero-padded to whole bytes, 8 digits a byte
    digits = format(bits.value, f"0{bits.nbits}b") if bits.nbits else ""
    digits += "0" * (-bits.nbits % 8)
    expected = bytes(int(digits[i:i + 8], 2) for i in range(0, len(digits), 8))
    assert msb_bytes(bits.value, bits.nbits) == bits.to_bytes() == expected


@given(bit_strings)
def test_xor_involution(bits):
    zero = Bits(0, bits.nbits)
    assert bits ^ bits == zero
    assert bits ^ zero == bits


def shake_stream(header, payload, nbits):
    """block_stream by its definition, digit by digit: the first ``nbits``
    binary digits of SHAKE-256 over LE64(len(header)) || header || payload."""
    data = len(header).to_bytes(8, "little") + header + payload
    digits = "".join(format(byte, "08b") for byte in hashlib.shake_256(data).digest(-(-nbits // 8)))
    return Bits(int(digits[:nbits] or "0", 2), nbits)


def test_block_stream_first_block():
    header, payload = le64(3) + le64(9), b"xyz"
    first = int.from_bytes(hashlib.shake_256(le64(16) + header + payload).digest(8), "big")
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


@given(st.binary(max_size=24), st.binary(max_size=300),
       st.integers(min_value=0, max_value=2200))
@example(b"", b"", 0)
@example(b"", b"", 1)
@example(b"\x01", b"xyz", 7)
@example(b"\x01", b"xyz", 9)
@example(b"", b"", 1089)  # 137 bytes out: one past SHAKE-256's 136-byte rate
def test_block_stream_matches_shake_256(header, payload, nbits):
    assert block_stream(header, payload, nbits) == shake_stream(header, payload, nbits)


ALL_BYTES = bytes(range(256))


@pytest.mark.parametrize("nbits", [0, 1, 63, 64, 65, 100, 127, 128, 129, 192, 640, 700,
                                   16448, 16449])
@pytest.mark.parametrize("header,payload", [
    (le64(5) + le64(6), b"xyz"),
    (b"", b"xyz"),
    (le64(5), b""),
    (b"", b""),
    (le64(7), ALL_BYTES[::-1] + ALL_BYTES),
], ids=["plain", "empty-header", "empty-payload", "both-empty", "all-byte-values"])
def test_block_stream_lanes_match_scalar_blocks(header, payload, nbits):
    # fixed streams of one 64-bit block, two, and many (257 blocks: 16448 bits
    # and one more), with empty and full-byte-range inputs, by the definition
    assert block_stream(header, payload, nbits) == shake_stream(header, payload, nbits)


@pytest.mark.parametrize("state", [0, 2**63, 2**64 - 2, 2**64 - 1],
                         ids=["zero", "2^63", "2^64-2", "2^64-1"])
@pytest.mark.parametrize("payload", [b"", b"xyz", ALL_BYTES],
                         ids=["empty", "xyz", "all-byte-values"])
def test_lane_hashes_match_scalar_from_any_state(state, payload):
    # headers holding the extreme 64-bit words: 2, 3 and 257 blocks by the
    # definition, each stream a prefix of the longest
    header = le64(state)
    longest = block_stream(header, payload, 257 * 64)
    for nblocks in (2, 3, 257):
        stream = block_stream(header, payload, nblocks * 64)
        assert stream == shake_stream(header, payload, nblocks * 64)
        assert stream.value == longest.value >> (longest.nbits - stream.nbits)


def test_block_stream_rejects_negative_length():
    with pytest.raises(ValueError, match="negative bit length"):
        block_stream(b"", b"", -1)


def test_block_stream_pinned_digest():
    # computed with shake_stream, the definition written out above
    stream = block_stream(le64(1) + le64(2), ALL_BYTES * 8, 8192)
    assert (hashlib.sha256(stream.to_bytes()).hexdigest()
            == "9f8366e2db65f68542fd5d2503f54035e2e6bd71be6cd63a082d1f86724142a3")
