"""IPv4: protocol demux through one reader task, fragmentation on send,
and reassembly inside the dealer.

The dealer owns the reassembly map and inserts every fragment itself,
so a fragmented datagram costs no extra task and no extra hand-off.
Every reassembly gets the same timeout from its first fragment, so the
map's insertion order is also its deadline order: the dealer expires
entries from the front on every turn of its loop, and its recv waits no
longer than the first entry's deadline.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

from netstack import addr, wire
from netstack.csp import BindingRegistry, Counters, MessageQueue, TaskSet
from netstack.errors import Closed, LengthError, NoRoute, Timeout, WireError


@dataclass(frozen=True)
class FragmentKey:
    src_ip: bytes
    dst_ip: bytes
    protocol: int
    identification: int


def fragment_payload(payload: bytes, mtu: int) -> list[tuple[int, bool, bytes]]:
    """Split payload into (offset_units, more_fragments, chunk) triples.

    Every chunk except the last is the largest multiple of 8 that fits
    in mtu - 20, because offsets are carried in 8-byte units.
    """
    limit = ((mtu - wire.IP_HEADER) // 8) * 8
    if len(payload) <= mtu - wire.IP_HEADER:
        return [(0, False, payload)]
    out = []
    pos = 0
    while pos < len(payload):
        chunk = payload[pos:pos + limit]
        more = pos + len(chunk) < len(payload)
        out.append((pos // 8, more, chunk))
        pos += len(chunk)
    return out


class _Assembler:
    """One datagram's fragments, collected until coverage is complete."""

    def __init__(self, key: FragmentKey, deadline: float, counters: Counters):
        self.key = key
        self.deadline = deadline
        self.counters = counters
        self.buffer = bytearray()
        self.intervals = []  # merged, sorted (start, end) byte ranges
        self.total = None

    def insert(self, fragment: wire.Ipv4Packet) -> wire.Ipv4Packet | None:
        """Add one fragment; returns the whole datagram once it is complete."""
        start = fragment.fragment_offset * 8
        end = start + len(fragment.payload)
        if end > 65535 - wire.IP_HEADER:  # the whole datagram must fit one IPv4 packet
            self.counters.incr("ip.drop.oversize")
            return None
        if not fragment.mf:
            if self.total is not None and self.total != end:
                self.counters.incr("ip.drop.fragment_conflict")
                return None
            self.total = end
        if len(self.buffer) < end:
            self.buffer.extend(bytes(end - len(self.buffer)))
        # a fragment disagreeing with bytes already in place is discarded whole
        for s, e in self.intervals:
            lo, hi = max(s, start), min(e, end)
            if lo < hi and self.buffer[lo:hi] != fragment.payload[lo - start:hi - start]:
                self.counters.incr("ip.drop.fragment_conflict")
                return None
        self.buffer[start:end] = fragment.payload
        self._merge(start, end)
        if self.total is not None and self.intervals == [(0, self.total)]:
            whole = wire.Ipv4Packet(
                src_ip=self.key.src_ip, dst_ip=self.key.dst_ip,
                protocol=self.key.protocol, payload=bytes(self.buffer[:self.total]),
                identification=self.key.identification,
            )
            self.counters.incr("ip.reassembly.completed")
            return whole
        return None

    def _merge(self, start: int, end: int) -> None:
        merged = sorted(self.intervals + [(start, end)])
        out = [merged[0]]
        for s, e in merged[1:]:
            ls, le = out[-1]
            if s <= le:
                out[-1] = (ls, max(le, e))
            else:
                out.append((s, e))
        self.intervals = out


class Ipv4Layer:
    def __init__(self, eth, arp, config, counters: Counters, tasks: TaskSet):
        self.eth = eth
        self.arp = arp
        self.counters = counters
        self.tasks = tasks
        self.our_ip = config.ip_bytes
        self.netmask = config.netmask_bytes
        self._mask = addr.ip_to_int(self.netmask)
        self._subnet = addr.ip_to_int(self.our_ip) & self._mask
        self.gateway = config.gateway_bytes
        self.broadcasts = (addr.BROADCAST_IP,
                           addr.subnet_broadcast(self.our_ip, self.netmask))
        self.mtu = config.mtu
        self.reassembly_timeout_s = config.reassembly_timeout_ms / 1000.0
        self.inbound = MessageQueue(config.queue_capacity)
        self.dispatch_q = MessageQueue(config.queue_capacity)
        self.registry = BindingRegistry("ip", counters)  # protocol number -> queue
        self._assemblers = {}  # FragmentKey -> _Assembler, dealer-owned, oldest first
        self._ident = itertools.count(1)
        self._ident_lock = threading.Lock()

    def start(self) -> None:
        self.eth.registry.bind(wire.ETHERTYPE_IPV4, self.inbound)
        self.tasks.spawn("ip-dealer", self._dealer_loop)
        self.tasks.spawn("ip-reader", self._reader_loop)

    def assembler_count(self) -> int:
        return len(self._assemblers)

    # --- inbound ---

    def _dealer_loop(self) -> None:
        while True:
            # expire on every turn: steady traffic must not keep a stale entry alive
            timeout = self._expire(time.monotonic())
            try:
                msg = self.inbound.recv(timeout)
            except Timeout:
                continue
            except Closed:
                self._assemblers.clear()
                self.dispatch_q.close()
                return
            if isinstance(msg, wire.EthernetFrame):
                try:
                    packet = wire.decode("ipv4", msg.payload)
                except WireError:
                    self.counters.incr("ip.drop.decode")
                    continue
                self._accept(packet)
            elif isinstance(msg, tuple) and msg[0] == "packet":
                self._accept(msg[1])

    def _expire(self, now: float) -> float | None:
        """Drop reassemblies past their deadline; returns the wait until the next."""
        while self._assemblers:
            first = next(iter(self._assemblers.values()))
            if first.deadline > now:
                return first.deadline - now
            del self._assemblers[first.key]
            self.counters.incr("ip.reassembly.timeout")
        return None

    def _accept(self, packet: wire.Ipv4Packet) -> None:
        if packet.dst_ip != self.our_ip and packet.dst_ip not in self.broadcasts:
            self.counters.incr("ip.drop.not_ours")
            return
        if packet.ttl == 0:
            self.counters.incr("ip.drop.ttl")
            return
        if packet.is_fragment:
            self._reassemble(packet)
        else:
            self._forward(packet)

    def _forward(self, packet: wire.Ipv4Packet) -> None:
        try:
            self.dispatch_q.send(packet)
        except Closed:
            pass

    def _reassemble(self, packet: wire.Ipv4Packet) -> None:
        key = FragmentKey(packet.src_ip, packet.dst_ip,
                          packet.protocol, packet.identification)
        assembler = self._assemblers.get(key)
        if assembler is None:
            assembler = _Assembler(key, time.monotonic() + self.reassembly_timeout_s,
                                   self.counters)
            self._assemblers[key] = assembler
        whole = assembler.insert(packet)
        if whole is not None:
            del self._assemblers[key]
            self._forward(whole)

    def _reader_loop(self) -> None:
        for packet in self.dispatch_q:
            self.registry.dispatch(packet.protocol, packet)
        self.registry.close()

    # --- outbound ---

    def next_identification(self) -> int:
        with self._ident_lock:
            return next(self._ident) & 0xFFFF

    def send(self, dst: bytes, protocol: int, payload: bytes) -> None:
        """Route, resolve, fragment if needed, and emit one datagram."""
        if len(payload) > 65515:
            raise LengthError(f"ip payload of {len(payload)} bytes exceeds 65515")
        dst = bytes(dst)
        if dst == self.our_ip:
            # loopback: straight back into our own inbound path
            packet = wire.Ipv4Packet(src_ip=self.our_ip, dst_ip=dst,
                                     protocol=protocol, payload=payload,
                                     identification=self.next_identification())
            try:
                self.inbound.send(("packet", packet))
            except Closed:
                pass
            return
        dst_mac = self._resolve_next_hop(dst)
        ident = self.next_identification()
        for offset_units, more, chunk in fragment_payload(payload, self.mtu):
            # positional, in field order: addresses, protocol, payload, id, ttl, DF, MF, offset
            packet = wire.Ipv4Packet(self.our_ip, dst, protocol, chunk,
                                     ident, 64, False, more, offset_units)
            self.eth.send(dst_mac, wire.ETHERTYPE_IPV4, packet.encode())

    def _resolve_next_hop(self, dst: bytes) -> bytes:
        if dst in self.broadcasts:
            return addr.BROADCAST_MAC
        if addr.ip_to_int(dst) & self._mask == self._subnet:
            next_hop = dst
        elif self.gateway is not None:
            next_hop = self.gateway
        else:
            raise NoRoute(f"{addr.format_ip(dst)} is off-subnet and no gateway is set")
        return self.arp.resolve(next_hop)
