"""IPv4: protocol demux through one reader task, fragmentation on send,
and reassembly inside the dealer.

Each burst of frames the dealer takes becomes one burst of packets for
the reader, and the reader sends one burst per protocol, so a queue
bound in ``registry`` receives bursts: lists of ``wire.Ipv4Packet``, in
arrival order.

The dealer owns the reassembly map and inserts every fragment itself,
so a fragmented datagram costs no extra task and no extra hand-off.
The map is keyed by the plain tuple (source, destination, protocol,
identification).  Each fragment is written once, in place, into its
datagram's buffer, and its byte range is merged into the held ranges in
one pass, so a fragment's cost does not grow with the fragments before
it (RFC 815).  Every reassembly gets the same timeout from its first
fragment, so the map's insertion order is also its deadline order:
while any reassembly is pending, the dealer expires entries from the
front on every turn of its loop, and its recv waits no longer than the
first entry's deadline.
"""

from __future__ import annotations

import itertools
import threading
import time

from netstack import addr, wire
from netstack.csp import BindingRegistry, Counters, MessageQueue, TaskSet
from netstack.errors import Closed, LengthError, NoRoute, ResolutionTimeout, Timeout, WireError


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


class _Refused(Exception):
    """A fragment the reassembly will not take; discard drops the whole datagram."""

    def __init__(self, counter: str, discard: bool = False):
        super().__init__(counter)
        self.counter = counter
        self.discard = discard


class _Assembler:
    """One datagram's fragments, each written once into a growing buffer.

    The buffer is as long as the furthest byte held; only a gap before a
    fragment that starts beyond it is zero-filled.  A fragment is checked
    only against the held ranges it overlaps, and a disagreeing one is
    refused whole.  The datagram's end comes from its last fragment: a
    second last fragment with another end, or a non-last one that ends
    past it, is refused, and a last fragment that ends below bytes
    already held discards the whole reassembly (RFC 791 §3.2).
    """

    __slots__ = ("deadline", "buffer", "ranges", "total")

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.buffer = bytearray()
        self.ranges = []  # sorted, disjoint (start, end) byte ranges held
        self.total = None  # the datagram's length, once its last fragment is in

    def insert(self, start: int, more: bool, payload: bytes) -> bytes | None:
        """Add one fragment; returns the datagram's payload once it is complete.

        Raises _Refused when the fragment is not taken.
        """
        end = start + len(payload)
        if end > 65535 - wire.IP_HEADER:  # the whole datagram must fit one IPv4 packet
            raise _Refused("ip.drop.oversize")
        buffer, ranges, total = self.buffer, self.ranges, self.total
        held = len(buffer)  # the end of the last held range
        if more:
            if total is not None and end > total:
                raise _Refused("ip.drop.fragment_conflict")
        elif total is None:
            if end < held:
                raise _Refused("ip.drop.fragment_conflict", discard=True)
            total = end
        elif end != total:
            raise _Refused("ip.drop.fragment_conflict")
        # one pass: skip ranges wholly before the fragment, then check and
        # absorb every range that overlaps or touches it
        i = 0
        while i < len(ranges) and ranges[i][1] < start:
            i += 1
        lo, hi = start, end
        j = i
        while j < len(ranges) and ranges[j][0] <= end:
            s, e = ranges[j]
            if s < lo:
                lo = s
            if e > hi:
                hi = e
            a, b = max(s, start), min(e, end)
            if a < b and buffer[a:b] != payload[a - start:b - start]:
                raise _Refused("ip.drop.fragment_conflict")
            j += 1
        if start > held:
            buffer.extend(bytes(start - held))
        buffer[start:end] = payload
        ranges[i:j] = [(lo, hi)]
        self.total = total
        if lo == 0 and hi == total:  # no held range ends past total: this one is all
            return bytes(buffer)
        return None


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
        self._assemblers = {}  # (src, dst, protocol, id) -> _Assembler, dealer-owned, oldest first
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
        assemblers = self._assemblers
        while True:
            # expire on every turn: steady traffic must not keep a stale entry alive
            timeout = self._expire(time.monotonic()) if assemblers else None
            try:
                msg = self.inbound.recv(timeout)
            except Timeout:
                continue
            except Closed:
                self._assemblers.clear()
                self.dispatch_q.close()
                return
            packets = []  # what this message delivers, in arrival order
            if isinstance(msg, list):  # a burst of frames
                for frame in msg:
                    try:
                        packet = wire.Ipv4Packet.decode(frame.payload)
                    except WireError:
                        self.counters.incr("ip.drop.decode")
                        continue
                    self._accept(packet, packets)
            elif isinstance(msg, tuple) and msg[0] == "packet":
                self._accept(msg[1], packets)
            if packets:
                self.dispatch_q.send(packets)  # only this task closes dispatch_q

    def _expire(self, now: float) -> float | None:
        """Drop reassemblies past their deadline; returns the wait until the next."""
        while self._assemblers:
            key, first = next(iter(self._assemblers.items()))
            if first.deadline > now:
                return first.deadline - now
            del self._assemblers[key]
            self.counters.incr("ip.reassembly.timeout")
        return None

    def _accept(self, packet: wire.Ipv4Packet, packets: list) -> None:
        """Append packet, or the datagram it completes, to packets if it is ours."""
        if packet.dst_ip != self.our_ip and packet.dst_ip not in self.broadcasts:
            self.counters.incr("ip.drop.not_ours")
            return
        if packet.ttl == 0:
            self.counters.incr("ip.drop.ttl")
            return
        if packet.mf or packet.fragment_offset:
            self._reassemble(packet, packets)
        else:
            packets.append(packet)

    def _reassemble(self, packet: wire.Ipv4Packet, packets: list) -> None:
        key = (packet.src_ip, packet.dst_ip, packet.protocol, packet.identification)
        assembler = self._assemblers.get(key)
        if assembler is None:
            assembler = self._assemblers[key] = _Assembler(
                time.monotonic() + self.reassembly_timeout_s)
        try:
            whole = assembler.insert(packet.fragment_offset * 8, packet.mf, packet.payload)
        except _Refused as refused:
            self.counters.incr(refused.counter)
            if refused.discard:
                del self._assemblers[key]
            return
        if whole is not None:
            del self._assemblers[key]
            self.counters.incr("ip.reassembly.completed")
            # positional, in field order: addresses, protocol, payload, id
            packets.append(wire.Ipv4Packet(packet.src_ip, packet.dst_ip, packet.protocol,
                                           whole, packet.identification))

    def _reader_loop(self) -> None:
        for burst in self.dispatch_q:
            by_protocol = {}  # protocol -> packets, in arrival order
            for packet in burst:
                by_protocol.setdefault(packet.protocol, []).append(packet)
            for protocol, packets in by_protocol.items():
                self.registry.dispatch(protocol, packets)
        self.registry.close()

    # --- outbound ---

    def next_identification(self) -> int:
        with self._ident_lock:
            return next(self._ident) & 0xFFFF

    def send(self, dst: bytes, protocol: int, payload: bytes,
             unroutable: str = None) -> None:
        """Route, resolve, fragment, emit.

        A sender that may not wait on ARP, a dealer answering a peer, names
        the counter its datagram counts if the next hop is unknown.  Its send
        never waits: on a miss in the published ARP cache the datagram goes
        to the ARP dealer, behind every ARP packet that reached us before the
        packet being answered, and leaves only if that taught the dealer the
        next hop (``ArpLayer.send_if_cached``).
        """
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
        next_hop = self._next_hop(dst)
        try:
            dst_mac = (addr.BROADCAST_MAC if next_hop is None
                       else self.arp.resolve(next_hop, unroutable is None))
        except ResolutionTimeout:
            if unroutable is None:
                raise
            dst_mac = None  # the ARP dealer decides
        ident = self.next_identification()
        held = []
        for offset_units, more, chunk in fragment_payload(payload, self.mtu):
            # positional, in field order: addresses, protocol, payload, id, ttl, DF, MF, offset
            raw = wire.Ipv4Packet(self.our_ip, dst, protocol, chunk,
                                  ident, 64, False, more, offset_units).encode()
            if dst_mac is None:
                held.append(raw)
            else:
                self.eth.send(dst_mac, wire.ETHERTYPE_IPV4, raw)
        if held:
            self.arp.send_if_cached(next_hop, wire.ETHERTYPE_IPV4, held, unroutable)

    def _next_hop(self, dst: bytes) -> bytes | None:
        """The address to resolve for dst; None for a broadcast."""
        if dst in self.broadcasts:
            return None
        if addr.ip_to_int(dst) & self._mask == self._subnet:
            return dst
        if self.gateway is not None:
            return self.gateway
        raise NoRoute(f"{addr.format_ip(dst)} is off-subnet and no gateway is set")
