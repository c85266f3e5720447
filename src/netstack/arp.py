"""Address resolution.

One dealer task owns the cache and the pending-request table outright.
After every change to the cache it publishes a fresh read-only copy,
which it never touches again, so a resolver that finds a live entry
there returns at once without a message.  A miss or an expired entry
goes to the dealer as a message, and the resolver blocks on a private
reply queue until the answer or the timeout arrives.  Concurrent
resolutions of one address share a single pending entry, so the wire
sees at most MAX_REQUESTS requests no matter how many callers are
waiting.
"""

from __future__ import annotations

import time
from types import MappingProxyType

from netstack import addr, wire
from netstack.csp import Counters, MessageQueue, TaskSet
from netstack.errors import Closed, ResolutionTimeout, Timeout, WireError

MAX_REQUESTS = 3  # requests per resolution, counting the first


class _Pending:
    __slots__ = ("waiters", "sends", "deadline")

    def __init__(self, deadline: float):
        self.waiters = []
        self.sends = 1
        self.deadline = deadline


class ArpLayer:
    def __init__(self, eth, our_ip: bytes, counters: Counters, tasks: TaskSet,
                 queue_capacity: int, timeout_ms: int = 1000,
                 cache_ttl_ms: int = 60000):
        self.eth = eth
        self.our_ip = our_ip
        self.counters = counters
        self.tasks = tasks
        self.inbound = MessageQueue(queue_capacity)
        self.timeout_s = timeout_ms / 1000.0
        self.cache_ttl_s = cache_ttl_ms / 1000.0
        self._cache = {}  # ip -> (mac, inserted_at), touched only by the dealer
        self._published = MappingProxyType({})  # read-only copy of _cache for resolvers
        self._pending = {}  # ip -> _Pending, same ownership as _cache

    def start(self) -> None:
        self.eth.registry.bind(wire.ETHERTYPE_ARP, self.inbound)
        self.tasks.spawn("arp-dealer", self._dealer_loop)

    def resolve(self, ip: bytes) -> bytes:
        """Block until ip maps to a MAC; raise ResolutionTimeout otherwise."""
        ip = bytes(ip)
        cached = self._published.get(ip)
        if cached is not None and time.monotonic() - cached[1] < self.cache_ttl_s:
            return cached[0]
        reply_q = MessageQueue(1)
        try:
            self.inbound.send(("resolve", ip, reply_q))
        except Closed:
            raise ResolutionTimeout("resolver is shut down") from None
        try:
            mac = reply_q.recv(timeout=(MAX_REQUESTS + 1) * self.timeout_s + 1.0)
        except (Timeout, Closed):
            raise ResolutionTimeout(f"no answer for {addr.format_ip(ip)}") from None
        if mac is None:
            raise ResolutionTimeout(f"no answer for {addr.format_ip(ip)} "
                                    f"after {MAX_REQUESTS} requests")
        return mac

    def add_static(self, ip: bytes, mac: bytes) -> None:
        """Prime the cache, e.g. from a reply observed out of band."""
        self.inbound.send(("static", bytes(ip), bytes(mac)))

    # --- dealer side ---

    def _dealer_loop(self) -> None:
        while True:
            timeout = self._next_deadline()
            try:
                msg = self.inbound.recv(timeout)
            except Timeout:
                self._retry_expired()
                continue
            except Closed:
                for pending in self._pending.values():
                    self._answer(pending, None)
                self._pending.clear()
                return
            if isinstance(msg, wire.EthernetFrame):
                self._handle_frame(msg)
            elif msg[0] == "resolve":
                self._handle_resolve(msg[1], msg[2])
            elif msg[0] == "static":
                self._cache[msg[1]] = (msg[2], time.monotonic())
                self._publish()

    def _publish(self) -> None:
        """Hand resolvers a new copy of the cache; the old one stays as it was."""
        self._published = MappingProxyType(dict(self._cache))

    def _next_deadline(self) -> float | None:
        if not self._pending:
            return None
        return max(0.0, min(p.deadline for p in self._pending.values()) - time.monotonic())

    def _handle_frame(self, frame: wire.EthernetFrame) -> None:
        try:
            pkt = wire.decode("arp", frame.payload)
        except WireError:
            self.counters.incr("arp.drop.decode")
            return
        # RFC 826's merge: any valid packet refreshes a known sender, but only
        # one addressed to us adds a new one, so other hosts' ARP chatter
        # cannot grow the cache
        if pkt.sender_ip in self._cache or pkt.target_ip == self.our_ip:
            self._cache[pkt.sender_ip] = (pkt.sender_mac, time.monotonic())
            self._publish()
        pending = self._pending.pop(pkt.sender_ip, None)
        if pending is not None:
            self._answer(pending, pkt.sender_mac)
        if pkt.opcode == wire.ARP_REQUEST and pkt.target_ip == self.our_ip:
            reply = wire.ArpPacket(opcode=wire.ARP_REPLY,
                                   sender_mac=self.eth.mac, sender_ip=self.our_ip,
                                   target_mac=pkt.sender_mac, target_ip=pkt.sender_ip)
            self.eth.send(pkt.sender_mac, wire.ETHERTYPE_ARP, reply.encode())
            self.counters.incr("arp.tx.reply")

    def _handle_resolve(self, ip: bytes, reply_q: MessageQueue) -> None:
        cached = self._cache.get(ip)
        if cached is not None:
            mac, inserted_at = cached
            if time.monotonic() - inserted_at < self.cache_ttl_s:
                self._send_answer(reply_q, mac)
                return
            del self._cache[ip]
            self._publish()
        pending = self._pending.get(ip)
        if pending is None:
            pending = _Pending(time.monotonic() + self.timeout_s)
            self._pending[ip] = pending
            self._send_request(ip)
        pending.waiters.append(reply_q)

    def _retry_expired(self) -> None:
        now = time.monotonic()
        for ip in list(self._pending):
            pending = self._pending[ip]
            if pending.deadline > now:
                continue
            if pending.sends < MAX_REQUESTS:
                pending.sends += 1
                pending.deadline = now + self.timeout_s
                self._send_request(ip)
            else:
                del self._pending[ip]
                self.counters.incr("arp.timeout")
                self._answer(pending, None)

    def _send_request(self, ip: bytes) -> None:
        request = wire.ArpPacket(opcode=wire.ARP_REQUEST,
                                 sender_mac=self.eth.mac, sender_ip=self.our_ip,
                                 target_mac=bytes(6), target_ip=ip)
        self.eth.send(addr.BROADCAST_MAC, wire.ETHERTYPE_ARP, request.encode())
        self.counters.incr("arp.tx.request")

    def _answer(self, pending: _Pending, mac: bytes | None) -> None:
        for reply_q in pending.waiters:
            self._send_answer(reply_q, mac)
        pending.waiters.clear()

    @staticmethod
    def _send_answer(reply_q: MessageQueue, mac: bytes | None) -> None:
        try:
            reply_q.send_nowait(mac)
        except Closed:
            pass  # the waiter gave up already
