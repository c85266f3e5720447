"""Header codec tests: fixed layouts, error paths, round trips."""

import hashlib
import random
import struct

import pytest

from netstack import errors, wire
from netstack.wire import (
    ArpPacket,
    EthernetFrame,
    IcmpEcho,
    Ipv4Packet,
    TcpSegment,
    UdpDatagram,
)

SRC_IP = b"\x0a\x00\x00\x01"
DST_IP = b"\x0a\x00\x00\x02"
MAC_A = b"\x02\x00\x00\x00\x00\x01"
MAC_B = b"\x02\x00\x00\x00\x00\x02"


# --- Ethernet ---

def test_ethernet_layout():
    f = EthernetFrame(dst_mac=MAC_B, src_mac=MAC_A, ethertype=0x0800, payload=b"xy")
    raw = f.encode()
    assert len(raw) == 16
    assert raw[0:6] == MAC_B
    assert raw[6:12] == MAC_A
    assert raw[12:14] == b"\x08\x00"
    assert raw[14:] == b"xy"


def test_ethernet_decode_reads_ethertype():
    raw = MAC_B + MAC_A + b"\x08\x00"
    assert wire.decode("ethernet", raw).ethertype == 2048


def test_ethernet_truncated():
    with pytest.raises(errors.TruncatedFrame):
        wire.decode("ethernet", bytes(13))


# --- ARP ---

def test_arp_request_layout():
    p = ArpPacket(opcode=1, sender_mac=MAC_A, sender_ip=SRC_IP,
                  target_mac=bytes(6), target_ip=b"\x0a\x00\x00\x02")
    raw = p.encode()
    assert len(raw) == 28
    assert raw[0:8] == b"\x00\x01\x08\x00\x06\x04\x00\x01"
    assert raw[6:8] == b"\x00\x01"


def test_arp_round_trip_and_trailing_padding():
    p = ArpPacket(opcode=2, sender_mac=MAC_B, sender_ip=DST_IP,
                  target_mac=MAC_A, target_ip=SRC_IP)
    raw = p.encode() + bytes(18)  # frames often arrive padded
    assert wire.decode("arp", raw) == p


def test_arp_rejects_wrong_hardware_type():
    raw = bytearray(ArpPacket(opcode=1, sender_mac=MAC_A, sender_ip=SRC_IP,
                              target_mac=bytes(6), target_ip=DST_IP).encode())
    raw[0:2] = b"\x00\x06"
    with pytest.raises(errors.Unsupported):
        wire.decode("arp", bytes(raw))
    with pytest.raises(errors.TruncatedFrame):
        wire.decode("arp", bytes(27))


# --- IPv4 ---

def test_ipv4_total_length_field():
    p = Ipv4Packet(src_ip=SRC_IP, dst_ip=DST_IP, protocol=17, payload=bytes(100))
    raw = p.encode()
    assert struct.unpack("!H", raw[2:4])[0] == 120
    assert raw[0] == 0x45


def test_ipv4_header_checksum_self_verifies():
    raw = Ipv4Packet(src_ip=SRC_IP, dst_ip=DST_IP, protocol=6,
                     payload=b"abc", identification=9).encode()
    assert wire.internet_checksum(raw[:20]) == 0


def test_ipv4_corrupted_header_is_rejected():
    raw = bytearray(Ipv4Packet(src_ip=SRC_IP, dst_ip=DST_IP, protocol=1,
                               payload=b"hi").encode())
    raw[8] ^= 0xFF  # ttl
    with pytest.raises(errors.ChecksumMismatch):
        wire.decode("ipv4", bytes(raw))


def test_ipv4_options_unsupported():
    raw = bytearray(Ipv4Packet(src_ip=SRC_IP, dst_ip=DST_IP, protocol=1).encode())
    raw[0] = 0x46
    with pytest.raises(errors.Unsupported):
        wire.decode("ipv4", bytes(raw))


def test_ipv4_truncation_and_padding():
    p = Ipv4Packet(src_ip=SRC_IP, dst_ip=DST_IP, protocol=17, payload=b"hello")
    raw = p.encode()
    with pytest.raises(errors.TruncatedFrame):
        wire.decode("ipv4", raw[:-1])
    # trailing link padding is trimmed off via total_length
    assert wire.decode("ipv4", raw + bytes(7)).payload == b"hello"


def test_ipv4_fragment_fields_round_trip():
    p = Ipv4Packet(src_ip=SRC_IP, dst_ip=DST_IP, protocol=17, payload=bytes(64),
                   identification=0x1234, mf=True, fragment_offset=185)
    q = wire.decode("ipv4", p.encode())
    assert (q.mf, q.df, q.fragment_offset, q.identification) == (True, False, 185, 0x1234)


def test_ipv4_payload_cap():
    with pytest.raises(errors.LengthError):
        Ipv4Packet(src_ip=SRC_IP, dst_ip=DST_IP, protocol=17,
                   payload=bytes(65516)).encode()


# --- ICMP ---

def test_icmp_echo_round_trip():
    e = IcmpEcho(icmp_type=8, identifier=7, sequence=3, data=b"abc")
    raw = e.encode()
    assert wire.internet_checksum(raw) == 0
    assert wire.decode("icmp", raw) == e


def test_icmp_bad_checksum():
    raw = bytearray(IcmpEcho(icmp_type=0, identifier=1, sequence=1).encode())
    raw[4] ^= 0x01
    with pytest.raises(errors.ChecksumMismatch):
        wire.decode("icmp", bytes(raw))


def test_icmp_non_echo_types_rejected():
    raw = bytearray(IcmpEcho(icmp_type=8, identifier=1, sequence=1).encode())
    raw[0] = 3
    raw[2:4] = b"\x00\x00"
    raw[2:4] = struct.pack("!H", wire.internet_checksum(bytes(raw)))
    with pytest.raises(errors.Unsupported):
        wire.decode("icmp", bytes(raw))


# --- UDP ---

def test_udp_length_and_checksum_fields():
    d = UdpDatagram(src_port=5000, dst_port=7, payload=b"hello")
    raw = d.encode(SRC_IP, DST_IP)
    assert struct.unpack("!H", raw[4:6])[0] == 13
    assert wire.transport_checksum(SRC_IP, DST_IP, 17, raw) == 0
    assert wire.decode("udp", raw, src_ip=SRC_IP, dst_ip=DST_IP) == d


def test_udp_zero_checksum_accepted():
    d = UdpDatagram(src_port=1, dst_port=2, payload=b"x")
    raw = bytearray(d.encode(SRC_IP, DST_IP))
    raw[6:8] = b"\x00\x00"
    assert wire.decode("udp", bytes(raw), src_ip=SRC_IP, dst_ip=DST_IP).payload == b"x"


def _udp_summing_to_zero(src_port: int, dst_port: int, prefix: bytes) -> UdpDatagram:
    """A datagram whose computed checksum is 0; prefix must have even length.

    With its last word 0, the datagram checksums to c; a last word of c
    then makes the words sum to 0xFFFF, whose checksum is 0.
    """
    head = struct.pack("!HHHH", src_port, dst_port, 8 + len(prefix) + 2, 0)
    c = wire.transport_checksum(SRC_IP, DST_IP, 17, head + prefix + b"\x00\x00")
    d = UdpDatagram(src_port=src_port, dst_port=dst_port, payload=prefix + struct.pack("!H", c))
    assert wire.transport_checksum(SRC_IP, DST_IP, 17, head + d.payload) == 0
    return d


def test_udp_computed_zero_checksum_is_sent_as_all_ones():
    d = _udp_summing_to_zero(5000, 7, b"abcd")
    raw = d.encode(SRC_IP, DST_IP)
    assert raw[6:8] == b"\xff\xff"
    assert wire.decode("udp", raw, src_ip=SRC_IP, dst_ip=DST_IP) == d


def test_udp_bad_checksum_rejected():
    raw = bytearray(UdpDatagram(src_port=1, dst_port=2, payload=b"xy").encode(SRC_IP, DST_IP))
    raw[8] ^= 0x40
    with pytest.raises(errors.ChecksumMismatch):
        wire.decode("udp", bytes(raw), src_ip=SRC_IP, dst_ip=DST_IP)


def test_udp_length_field_errors():
    raw = bytearray(UdpDatagram(src_port=1, dst_port=2, payload=b"abcd").encode(SRC_IP, DST_IP))
    raw[4:6] = struct.pack("!H", 20)  # claims more than the buffer holds
    with pytest.raises(errors.TruncatedFrame):
        wire.decode("udp", bytes(raw))
    with pytest.raises(errors.LengthError):
        UdpDatagram(src_port=1, dst_port=2, payload=bytes(65508)).encode(SRC_IP, DST_IP)


# --- TCP ---

def test_tcp_bare_syn_layout():
    s = TcpSegment(src_port=4000, dst_port=80, seq=1, ack=0, flag_syn=True)
    raw = s.encode(SRC_IP, DST_IP)
    assert len(raw) == 20
    assert raw[13] == 0x02
    assert raw[12] >> 4 == 5


def test_tcp_syn_with_mss_option():
    s = TcpSegment(src_port=4000, dst_port=80, seq=1, flag_syn=True, mss=1460)
    raw = s.encode(SRC_IP, DST_IP)
    assert len(raw) == 24
    assert raw[12] >> 4 == 6
    assert raw[20:24] == b"\x02\x04\x05\xb4"
    back = wire.decode("tcp", raw, src_ip=SRC_IP, dst_ip=DST_IP)
    assert back.mss == 1460 and back.flag_syn


def test_tcp_flag_byte_combinations():
    s = TcpSegment(src_port=1, dst_port=2, seq=5, ack=9,
                   flag_fin=True, flag_ack=True, payload=b"q")
    raw = s.encode(SRC_IP, DST_IP)
    assert raw[13] == 0x11
    assert wire.transport_checksum(SRC_IP, DST_IP, 6, raw) == 0


def test_tcp_checksum_verified_when_addresses_known():
    raw = bytearray(TcpSegment(src_port=1, dst_port=2, seq=0, ack=0,
                               flag_ack=True, payload=b"data").encode(SRC_IP, DST_IP))
    raw[20] ^= 0x01
    with pytest.raises(errors.ChecksumMismatch):
        wire.decode("tcp", bytes(raw), src_ip=SRC_IP, dst_ip=DST_IP)


def test_tcp_unknown_options_skipped():
    s = TcpSegment(src_port=9, dst_port=10, seq=3, ack=4, flag_ack=True, payload=b"zz")
    raw = bytearray(s.encode(SRC_IP, DST_IP))
    # splice in a NOP-padded window-scale option by hand
    opts = b"\x01\x03\x03\x07"
    raw[12] = (6 << 4)
    spliced = bytes(raw[:20]) + opts + bytes(raw[20:])
    got = wire.decode("tcp", spliced)
    assert got.payload == b"zz" and got.mss is None


# --- generic round trips ---

def _random_unit(rng, layer):
    if layer == "ethernet":
        return EthernetFrame(dst_mac=rng.randbytes(6), src_mac=rng.randbytes(6),
                             ethertype=rng.choice([0x0800, 0x0806]),
                             payload=rng.randbytes(rng.randrange(0, 1500)))
    if layer == "arp":
        return ArpPacket(opcode=rng.choice([1, 2]), sender_mac=rng.randbytes(6),
                         sender_ip=rng.randbytes(4), target_mac=rng.randbytes(6),
                         target_ip=rng.randbytes(4))
    if layer == "ipv4":
        off = rng.randrange(0, 200)
        return Ipv4Packet(src_ip=rng.randbytes(4), dst_ip=rng.randbytes(4),
                          protocol=rng.choice([1, 6, 17]),
                          payload=rng.randbytes(rng.randrange(0, 1481)),
                          identification=rng.randrange(0, 65536),
                          ttl=rng.randrange(1, 256), df=rng.random() < 0.5,
                          mf=rng.random() < 0.5, fragment_offset=off,
                          dscp_ecn=rng.randrange(0, 256))
    if layer == "icmp":
        return IcmpEcho(icmp_type=rng.choice([0, 8]), identifier=rng.randrange(0, 65536),
                        sequence=rng.randrange(0, 65536),
                        data=rng.randbytes(rng.randrange(0, 1000)))
    if layer == "udp":
        return UdpDatagram(src_port=rng.randrange(0, 65536), dst_port=rng.randrange(0, 65536),
                           payload=rng.randbytes(rng.randrange(0, 1000)))
    return TcpSegment(src_port=rng.randrange(0, 65536), dst_port=rng.randrange(0, 65536),
                      seq=rng.randrange(0, 2**32), ack=rng.randrange(0, 2**32),
                      window=rng.randrange(0, 65536),
                      flag_fin=rng.random() < 0.3, flag_syn=rng.random() < 0.3,
                      flag_rst=rng.random() < 0.3, flag_ack=rng.random() < 0.7,
                      flag_psh=rng.random() < 0.3, flag_urg=rng.random() < 0.1,
                      mss=rng.choice([None, 536, 1460]),
                      payload=rng.randbytes(rng.randrange(0, 1200)))


@pytest.mark.parametrize("layer", ["ethernet", "arp", "ipv4", "icmp", "udp", "tcp"])
def test_round_trip_random_units(layer):
    rng = random.Random(f"codec:{layer}")
    for _ in range(1000):
        unit = _random_unit(rng, layer)
        raw = wire.encode(unit, src_ip=SRC_IP, dst_ip=DST_IP)
        assert wire.decode(layer, raw, src_ip=SRC_IP, dst_ip=DST_IP) == unit


def _golden_units(layer):
    rng = random.Random(f"golden:{layer}")
    units = [_random_unit(rng, layer) for _ in range(40)]
    if layer == "ipv4":
        units += [
            Ipv4Packet(src_ip=SRC_IP, dst_ip=DST_IP, protocol=17, payload=b"odd",
                       identification=1, df=True),
            Ipv4Packet(src_ip=SRC_IP, dst_ip=DST_IP, protocol=17, payload=bytes(1480),
                       identification=2, mf=True),
            Ipv4Packet(src_ip=SRC_IP, dst_ip=DST_IP, protocol=6, payload=b"tail!",
                       identification=2, fragment_offset=185),
            Ipv4Packet(src_ip=SRC_IP, dst_ip=DST_IP, protocol=1, payload=bytes(8),
                       identification=0xFFFF, ttl=1, df=True, mf=True,
                       fragment_offset=0x1FFF, dscp_ecn=0xB8),
        ]
    elif layer == "tcp":
        units += [
            TcpSegment(src_port=4000, dst_port=80, seq=1, flag_syn=True, mss=536),
            TcpSegment(src_port=80, dst_port=4000, seq=9, ack=2, flag_syn=True,
                       flag_ack=True, mss=1460),
            TcpSegment(src_port=4000, dst_port=80, seq=2, ack=10, flag_ack=True,
                       flag_psh=True, payload=b"odd"),
            TcpSegment(src_port=4000, dst_port=80, seq=5, ack=10, window=0,
                       flag_fin=True, flag_ack=True),
        ]
    elif layer == "udp":
        units += [_udp_summing_to_zero(5000, 7, b"abcd"),
                  UdpDatagram(src_port=53, dst_port=5353, payload=b"odd")]
    return units


# SHA-256 of each layer's golden units, encoded and concatenated; recorded
# from the codecs before they moved to precompiled layouts
GOLDEN_DIGESTS = {
    "ethernet": "4f87ecf5c8c0c73b2520a103df32d5d110a956d39a120ffe290baa6c9ad78e77",
    "arp": "2d90f6671d4d7378298ffc30f1e313530d1ce5936138f0685c754c55c9167fc7",
    "ipv4": "6aba5d843f2e39eb3adde6f34c9a36a7aaa826ef441e45fb567610159628c423",
    "icmp": "9ef01c390c83314d923b8e07757ec11c7a6ad6f72bad6cdd1176a3a3e14e487c",
    "udp": "db0d3969cc35b83f609b686a038e386557dcb566070b40ea24bb61643a84b78d",
    "tcp": "28809d99488f4aba79f33f02c54ef57e0b47b0999cf4af01e9567d8a7cfa4f23",
}


@pytest.mark.parametrize("layer", ["ethernet", "arp", "ipv4", "icmp", "udp", "tcp"])
def test_encodings_match_the_recorded_bytes(layer):
    units = _golden_units(layer)
    raws = [wire.encode(unit, src_ip=SRC_IP, dst_ip=DST_IP) for unit in units]
    assert hashlib.sha256(b"".join(raws)).hexdigest() == GOLDEN_DIGESTS[layer]
    if layer == "udp":
        assert raws[-2][6:8] == b"\xff\xff"  # the computed 0 goes out as its alias
    for unit, raw in zip(units, raws):
        for data in (raw, bytearray(raw), memoryview(raw)):
            got = wire.decode(layer, data, src_ip=SRC_IP, dst_ip=DST_IP)
            assert got == unit
            carried = got.data if layer == "icmp" else getattr(got, "payload", b"")
            assert type(carried) is bytes


@pytest.mark.parametrize("layer", ["ethernet", "arp", "ipv4", "icmp", "udp", "tcp"])
def test_decode_never_faults_on_noise(layer):
    rng = random.Random(0xBEEF)
    for _ in range(3000):
        data = rng.randbytes(rng.randrange(0, 80))
        try:
            wire.decode(layer, data, src_ip=SRC_IP, dst_ip=DST_IP)
        except errors.WireError:
            pass
