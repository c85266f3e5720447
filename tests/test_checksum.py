"""Checksum tests against an independent reference.

The reference below accumulates byte pairs into a plain integer and
folds the carries at the end.  It is written on purpose in a different
style from the library implementation so the two can check each other.
"""

import random
import struct

import pytest

from netstack import errors, wire


def reference_checksum(data: bytes) -> int:
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def test_empty_input_is_all_ones():
    assert wire.internet_checksum(b"") == 0xFFFF


def test_zero_word():
    assert wire.internet_checksum(b"\x00\x00") == 0xFFFF


def test_known_eight_byte_value():
    data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
    assert wire.internet_checksum(data) == 0x220D


def test_odd_length_padded_with_zero():
    assert wire.internet_checksum(b"\x12") == wire.internet_checksum(b"\x12\x00")


def test_matches_reference_on_random_buffers():
    rng = random.Random(7)
    for _ in range(2000):
        data = rng.randbytes(rng.randrange(0, 2001))
        assert wire.internet_checksum(data) == reference_checksum(data)


def test_insert_then_verify_yields_zero():
    rng = random.Random(8)
    for _ in range(200):
        buf = bytearray(rng.randbytes(rng.randrange(2, 64) * 2))
        buf[2:4] = b"\x00\x00"
        buf[2:4] = struct.pack("!H", wire.internet_checksum(bytes(buf)))
        assert wire.internet_checksum(bytes(buf)) == 0


def test_empty_udp_pseudo_header():
    zero = bytes(4)
    assert wire.transport_checksum(zero, zero, 17, b"") == 0xFFEE


def test_transport_matches_manual_pseudo_header():
    rng = random.Random(9)
    for _ in range(500):
        src = rng.randbytes(4)
        dst = rng.randbytes(4)
        proto = rng.choice([6, 17])
        seg = rng.randbytes(rng.randrange(0, 100))
        pseudo = src + dst + bytes([0, proto]) + struct.pack("!H", len(seg))
        assert wire.transport_checksum(src, dst, proto, seg) == reference_checksum(pseudo + seg)


def test_transport_rejects_oversize_segment():
    with pytest.raises(errors.LengthError):
        wire.transport_checksum(bytes(4), bytes(4), 6, bytes(65536))


def test_single_bit_flip_breaks_verification():
    # A UDP-shaped segment with its checksum filled in verifies to zero;
    # flipping any one payload bit must break that.
    src, dst = b"\x0a\x00\x00\x01", b"\x0a\x00\x00\x02"
    payload = bytes(range(16))
    head = struct.pack("!HHHH", 3200, 7, 8 + len(payload), 0)
    c = wire.transport_checksum(src, dst, 17, head + payload)
    seg = bytearray(head + payload)
    seg[6:8] = struct.pack("!H", c)
    assert wire.transport_checksum(src, dst, 17, bytes(seg)) == 0
    for byte_i in range(8, len(seg)):
        for bit in range(8):
            seg[byte_i] ^= 1 << bit
            assert wire.transport_checksum(src, dst, 17, bytes(seg)) != 0
            seg[byte_i] ^= 1 << bit


# The zero/0xFFFF edge: random buffers almost never sum to 0xFFFF or to 0,
# so these inputs are pinned by hand.

@pytest.mark.parametrize("length", [2, 20, 1480, 9008])
def test_all_ones_buffer_of_even_length_checksums_to_zero(length):
    data = b"\xff" * length
    assert reference_checksum(data) == 0
    assert wire.internet_checksum(data) == 0


@pytest.mark.parametrize("length", [1, 3, 21, 1481])
def test_all_ones_buffer_of_odd_length_checksums_to_00ff(length):
    # the zero pad makes the last word 0xFF00
    data = b"\xff" * length
    assert reference_checksum(data) == 0x00FF
    assert wire.internet_checksum(data) == 0x00FF


@pytest.mark.parametrize("length", [3, 21, 1481])
def test_odd_length_buffer_summing_to_ffff_checksums_to_zero(length):
    # words 0x00FF, 0xFFFF..., and the padded 0xFF00 add up to 0xFFFF
    data = b"\x00" + b"\xff" * (length - 1)
    assert reference_checksum(data) == 0
    assert wire.internet_checksum(data) == 0


@pytest.mark.parametrize("data", [bytes.fromhex("1234edcb"), bytes.fromhex("0001fffe"),
                                  bytes.fromhex("80007fff")])
def test_mixed_words_summing_to_a_multiple_of_ffff_checksum_to_zero(data):
    assert reference_checksum(data) == 0
    assert wire.internet_checksum(data) == 0


@pytest.mark.parametrize("length", [1, 2, 3, 20, 1480, 9008])
def test_all_zero_buffer_checksums_to_all_ones(length):
    assert wire.internet_checksum(bytes(length)) == 0xFFFF


def test_matches_reference_on_large_random_buffers():
    rng = random.Random(10)
    for i in range(40):
        # alternate parities, 2001..65534 bytes
        length = rng.randrange(1001, 32768) * 2 - i % 2
        data = rng.randbytes(length)
        assert wire.internet_checksum(data) == reference_checksum(data)


def test_bytearray_and_memoryview_inputs_match_bytes():
    rng = random.Random(12)
    for length in (0, 1, 2, 19, 20, 1481):
        data = rng.randbytes(length)
        want = wire.internet_checksum(data)
        assert wire.internet_checksum(bytearray(data)) == want
        assert wire.internet_checksum(memoryview(data)) == want
        assert wire.internet_checksum(memoryview(b"xx" + data)[2:]) == want
