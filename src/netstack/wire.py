"""Header codecs and the Internet checksum.

Everything here is a pure function over bytes: encoding computes length
and checksum fields itself rather than trusting the caller, decoding
verifies them and never reads past the end of its input.  All layouts
are network byte order.

The Ethernet, IPv4, UDP, TCP and pseudo-header layouts are precompiled,
one `struct.Struct` each; their decoders build units positionally, and
the IPv4, UDP and TCP encoders pack the header again with the checksum
in place.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from netstack.errors import (
    ChecksumMismatch,
    LengthError,
    TruncatedFrame,
    Unsupported,
)

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

ARP_REQUEST = 1
ARP_REPLY = 2

ICMP_ECHO_REPLY = 0
ICMP_ECHO_REQUEST = 8

ETH_HEADER = 14
IP_HEADER = 20

_FIN = 0x01
_SYN = 0x02
_RST = 0x04
_PSH = 0x08
_ACK = 0x10
_URG = 0x20

_ETH = struct.Struct("!6s6sH")
_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_UDP = struct.Struct("!HHHH")
_TCP = struct.Struct("!HHIIBBHHH")
_PSEUDO = struct.Struct("!4s4sBBH")


def internet_checksum(data: bytes) -> int:
    """One's-complement checksum over big-endian 16-bit words (RFC 1071).

    Odd-length input is padded with a zero byte for summation only.
    Placing the result in the checksum field makes a re-run over the
    same region yield 0.

    The buffer read as one big-endian integer is the sum of word_i * 2^(16i),
    and 2^16 ≡ 1 (mod 0xFFFF), so its remainder mod 0xFFFF is the
    ones'-complement sum of the words, folded, with 0xFFFF read as 0. End-around
    carry never sums non-zero data to +0, so a zero remainder from non-zero
    data is a sum of 0xFFFF, whose complement is 0; all-zero data sums to 0.
    """
    n = int.from_bytes(data, "big")
    if len(data) % 2:
        n <<= 8
    s = n % 0xFFFF
    return 0 if s == 0 and n else 0xFFFF - s


def transport_checksum(src_ip: bytes, dst_ip: bytes, protocol: int, segment: bytes) -> int:
    """Checksum over the IPv4 pseudo-header followed by the segment."""
    if len(segment) > 0xFFFF:
        raise LengthError(f"segment of {len(segment)} bytes exceeds 65535")
    pseudo = _PSEUDO.pack(bytes(src_ip), bytes(dst_ip), 0, protocol, len(segment))
    return internet_checksum(pseudo + segment)


def _short(data: bytes, n: int, what: str) -> TruncatedFrame:
    return TruncatedFrame(f"{what}: have {len(data)} bytes, need {n}")


@dataclass
class EthernetFrame:
    dst_mac: bytes
    src_mac: bytes
    ethertype: int
    payload: bytes = b""

    def encode(self) -> bytes:
        return _ETH.pack(self.dst_mac, self.src_mac, self.ethertype) + self.payload

    @classmethod
    def decode(cls, data: bytes) -> "EthernetFrame":
        if len(data) < ETH_HEADER:
            raise _short(data, ETH_HEADER, "ethernet header")
        dst, src, etype = _ETH.unpack_from(data)
        return cls(dst, src, etype, bytes(data[ETH_HEADER:]))


@dataclass
class ArpPacket:
    opcode: int
    sender_mac: bytes
    sender_ip: bytes
    target_mac: bytes
    target_ip: bytes

    def encode(self) -> bytes:
        return struct.pack(
            "!HHBBH6s4s6s4s",
            1, ETHERTYPE_IPV4, 6, 4, self.opcode,
            self.sender_mac, self.sender_ip, self.target_mac, self.target_ip,
        )

    @classmethod
    def decode(cls, data: bytes) -> "ArpPacket":
        if len(data) < 28:
            raise _short(data, 28, "arp packet")
        hw, proto, hlen, plen, op, smac, sip, tmac, tip = struct.unpack_from("!HHBBH6s4s6s4s", data)
        if hw != 1 or proto != ETHERTYPE_IPV4 or hlen != 6 or plen != 4:
            raise Unsupported(f"arp for hw={hw} proto={proto:#x}")
        if op not in (ARP_REQUEST, ARP_REPLY):
            raise Unsupported(f"arp opcode {op}")
        return cls(opcode=op, sender_mac=smac, sender_ip=sip, target_mac=tmac, target_ip=tip)


@dataclass
class Ipv4Packet:
    src_ip: bytes
    dst_ip: bytes
    protocol: int
    payload: bytes = b""
    identification: int = 0
    ttl: int = 64
    df: bool = False
    mf: bool = False
    fragment_offset: int = 0  # in 8-byte units
    dscp_ecn: int = 0

    def encode(self) -> bytes:
        payload = self.payload
        if len(payload) > 65515:
            raise LengthError(f"ipv4 payload of {len(payload)} bytes exceeds 65515")
        if self.fragment_offset > 0x1FFF:
            raise LengthError(f"fragment offset {self.fragment_offset} exceeds 13 bits")
        tos, total, ident, flags_frag, ttl, proto, src, dst = (
            self.dscp_ecn, IP_HEADER + len(payload), self.identification,
            (self.df << 14) | (self.mf << 13) | self.fragment_offset,
            self.ttl, self.protocol, self.src_ip, self.dst_ip)
        head = _IPV4.pack(0x45, tos, total, ident, flags_frag, ttl, proto, 0, src, dst)
        csum = internet_checksum(head)
        return _IPV4.pack(0x45, tos, total, ident, flags_frag, ttl, proto, csum, src, dst) + payload

    @classmethod
    def decode(cls, data: bytes) -> "Ipv4Packet":
        if len(data) < IP_HEADER:
            raise _short(data, IP_HEADER, "ipv4 header")
        ver_ihl, dscp, total, ident, flags_frag, ttl, proto, _csum, src, dst = \
            _IPV4.unpack_from(data)
        if ver_ihl >> 4 != 4:
            raise Unsupported(f"ip version {ver_ihl >> 4}")
        if ver_ihl & 0x0F != 5:
            raise Unsupported("ipv4 options")
        if total < IP_HEADER:
            raise TruncatedFrame(f"ipv4 total_length {total} below header size")
        if len(data) < total:
            raise _short(data, total, "ipv4 packet")
        if internet_checksum(data[:IP_HEADER]) != 0:
            raise ChecksumMismatch("ipv4 header checksum")
        return cls(src, dst, proto, bytes(data[IP_HEADER:total]), ident, ttl,
                   flags_frag & 0x4000 != 0, flags_frag & 0x2000 != 0,
                   flags_frag & 0x1FFF, dscp)


@dataclass
class IcmpEcho:
    icmp_type: int  # 8 request, 0 reply
    identifier: int
    sequence: int
    data: bytes = b""
    code: int = 0

    def encode(self) -> bytes:
        head = struct.pack("!BBHHH", self.icmp_type, self.code, 0,
                           self.identifier, self.sequence)
        c = internet_checksum(head + self.data)
        return head[:2] + struct.pack("!H", c) + head[4:] + self.data

    @classmethod
    def decode(cls, data: bytes) -> "IcmpEcho":
        if len(data) < 8:
            raise _short(data, 8, "icmp header")
        if internet_checksum(data) != 0:
            raise ChecksumMismatch("icmp checksum")
        itype, code, _csum, ident, seq = struct.unpack_from("!BBHHH", data)
        if itype not in (ICMP_ECHO_REQUEST, ICMP_ECHO_REPLY) or code != 0:
            raise Unsupported(f"icmp type {itype} code {code}")
        return cls(icmp_type=itype, identifier=ident, sequence=seq, data=bytes(data[8:]))


@dataclass
class UdpDatagram:
    src_port: int
    dst_port: int
    payload: bytes = b""

    def encode(self, src_ip: bytes, dst_ip: bytes) -> bytes:
        payload = self.payload
        if len(payload) > 65507:
            raise LengthError(f"udp payload of {len(payload)} bytes exceeds 65507")
        sport, dport, length = self.src_port, self.dst_port, 8 + len(payload)
        c = transport_checksum(src_ip, dst_ip, PROTO_UDP,
                               _UDP.pack(sport, dport, length, 0) + payload)
        if c == 0:  # 0 means "unchecked" on the wire, so send its alias instead
            c = 0xFFFF
        return _UDP.pack(sport, dport, length, c) + payload

    @classmethod
    def decode(cls, data: bytes, src_ip: bytes = None, dst_ip: bytes = None) -> "UdpDatagram":
        if len(data) < 8:
            raise _short(data, 8, "udp header")
        sport, dport, length, csum = _UDP.unpack_from(data)
        if length < 8:
            raise TruncatedFrame(f"udp length field {length} below header size")
        if len(data) < length:
            raise _short(data, length, "udp datagram")
        if csum != 0 and src_ip is not None and dst_ip is not None:
            if transport_checksum(src_ip, dst_ip, PROTO_UDP, data[:length]) != 0:
                raise ChecksumMismatch("udp checksum")
        return cls(sport, dport, bytes(data[8:length]))


@dataclass
class TcpSegment:
    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    window: int = 65535
    flag_fin: bool = False
    flag_syn: bool = False
    flag_rst: bool = False
    flag_ack: bool = False
    flag_psh: bool = False
    flag_urg: bool = False
    mss: int | None = None  # the only option emitted; carried on SYNs
    payload: bytes = b""

    def flags_byte(self) -> int:
        return ((self.flag_fin and _FIN) | (self.flag_syn and _SYN)
                | (self.flag_rst and _RST) | (self.flag_psh and _PSH)
                | (self.flag_ack and _ACK) | (self.flag_urg and _URG))

    def seq_span(self) -> int:
        """Sequence numbers this segment occupies (SYN and FIN count as one each)."""
        return len(self.payload) + bool(self.flag_syn) + bool(self.flag_fin)

    def encode(self, src_ip: bytes, dst_ip: bytes) -> bytes:
        options = b"" if self.mss is None else struct.pack("!BBH", 2, 4, self.mss)
        tail = options + self.payload
        if len(tail) > 65515:
            raise LengthError(f"tcp segment of {20 + len(tail)} bytes exceeds 65535")
        sport, dport, seq, ack, off_byte, flags, window = (
            self.src_port, self.dst_port, self.seq, self.ack,
            (5 + len(options) // 4) << 4, self.flags_byte(), self.window)
        unchecked = _TCP.pack(sport, dport, seq, ack, off_byte, flags, window, 0, 0) + tail
        c = transport_checksum(src_ip, dst_ip, PROTO_TCP, unchecked)
        return _TCP.pack(sport, dport, seq, ack, off_byte, flags, window, c, 0) + tail

    @classmethod
    def decode(cls, data: bytes, src_ip: bytes = None, dst_ip: bytes = None) -> "TcpSegment":
        if len(data) < 20:
            raise _short(data, 20, "tcp header")
        sport, dport, seq, ack, off_byte, flags, window, _csum, _urgp = _TCP.unpack_from(data)
        offset = (off_byte >> 4) * 4
        if offset < 20:
            raise Unsupported(f"tcp data offset {offset}")
        if len(data) < offset:
            raise _short(data, offset, "tcp options")
        if src_ip is not None and dst_ip is not None:
            if transport_checksum(src_ip, dst_ip, PROTO_TCP, data) != 0:
                raise ChecksumMismatch("tcp checksum")
        mss = None
        i = 20
        while i < offset:
            kind = data[i]
            if kind == 0:  # end of options
                break
            if kind == 1:  # nop
                i += 1
                continue
            if i + 1 >= offset:
                raise TruncatedFrame("tcp option length missing")
            olen = data[i + 1]
            if olen < 2 or i + olen > offset:
                raise TruncatedFrame("tcp option overruns header")
            if kind == 2 and olen == 4:
                mss = struct.unpack_from("!H", data, i + 2)[0]
            i += olen
        return cls(sport, dport, seq, ack, window,
                   flags & _FIN != 0, flags & _SYN != 0, flags & _RST != 0,
                   flags & _ACK != 0, flags & _PSH != 0, flags & _URG != 0,
                   mss, bytes(data[offset:]))


_LAYERS = {
    "ethernet": EthernetFrame,
    "arp": ArpPacket,
    "ipv4": Ipv4Packet,
    "icmp": IcmpEcho,
    "udp": UdpDatagram,
    "tcp": TcpSegment,
}

_NEEDS_ADDRESSES = (UdpDatagram, TcpSegment)


def decode(layer: str, data: bytes, src_ip: bytes = None, dst_ip: bytes = None):
    """Decode data as the named layer's unit, checking its invariants."""
    cls = _LAYERS[layer]
    if cls in _NEEDS_ADDRESSES:
        return cls.decode(data, src_ip, dst_ip)
    return cls.decode(data)


def encode(unit, src_ip: bytes = None, dst_ip: bytes = None) -> bytes:
    """Encode any protocol unit; UDP and TCP need addresses for their checksum."""
    if isinstance(unit, _NEEDS_ADDRESSES):
        return unit.encode(src_ip, dst_ip)
    return unit.encode()
