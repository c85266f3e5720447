"""ICMP echo: one dealer task answers echo requests and routes echo replies.

The dealer builds and sends each reply itself, inline, as the TCP dealer
sends a refusal.  A requester has to ARP us before it can ping us, and the
ARP dealer caches the sender of every ARP packet aimed at us, so resolving
the reply's next hop is normally a hit on the published cache.  A miss
does not wait: the reply goes to the ARP dealer, which sends it if it
has learned the requester by then and otherwise counts it as
``icmp.drop.reply_unroutable``.
An echo reply goes to the pinger waiting on its (identifier, sequence).
When the dealer's inbox ends, it closes every pinger's reply queue and
takes no more waiters, so a ping in flight at teardown, or started after
it, is lost at once instead of at its timeout.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

from netstack import addr, wire
from netstack.csp import Counters, MessageQueue, TaskSet
from netstack.errors import Closed, NetstackError, Timeout, WireError


@dataclass
class PingStats:
    sent: int
    received: int
    loss: float
    min_ms: float
    avg_ms: float
    max_ms: float
    rtts_ms: list = field(default_factory=list)


class IcmpPing:
    def __init__(self, ipv4, config, counters: Counters, tasks: TaskSet):
        self.ipv4 = ipv4
        self.counters = counters
        self.tasks = tasks
        self.inbound = MessageQueue(config.queue_capacity)
        self._waiters = {}  # (identifier, sequence) -> reply queue
        self._waiters_lock = threading.Lock()
        self._ended = False  # set with _waiters_lock held once the dealer has stopped
        self._ident = itertools.count(1)

    def start(self) -> None:
        self.ipv4.registry.bind(wire.PROTO_ICMP, self.inbound)
        self.tasks.spawn("ping-dealer", self._dealer_loop)

    def waiter_count(self) -> int:
        with self._waiters_lock:
            return len(self._waiters)

    # --- inbound ---

    def _dealer_loop(self) -> None:
        for datagram in self.inbound.units():
            try:
                echo = wire.decode("icmp", datagram.payload)
            except WireError:
                self.counters.incr("icmp.drop.decode")
                continue
            if echo.icmp_type == wire.ICMP_ECHO_REQUEST:
                self._reply(datagram.src_ip, echo)
            else:
                self._route_reply(echo)
        # no reply can come now: each ping still waiting counts as lost at once
        with self._waiters_lock:
            self._ended = True
            waiting, self._waiters = list(self._waiters.values()), {}
        for reply_q in waiting:
            reply_q.close()

    def _route_reply(self, echo: wire.IcmpEcho) -> None:
        with self._waiters_lock:
            reply_q = self._waiters.pop((echo.identifier, echo.sequence), None)
        if reply_q is None:
            self.counters.incr("icmp.drop.late")
            return
        try:
            reply_q.send_nowait((time.perf_counter(), echo))
        except Closed:
            self.counters.incr("icmp.drop.late")

    def _reply(self, src: bytes, request: wire.IcmpEcho) -> None:
        reply = wire.IcmpEcho(icmp_type=wire.ICMP_ECHO_REPLY,
                              identifier=request.identifier,
                              sequence=request.sequence,
                              data=request.data)
        try:
            self.ipv4.send(src, wire.PROTO_ICMP, reply.encode(),
                           unroutable="icmp.drop.reply_unroutable")
        except NetstackError:
            self.counters.incr("icmp.drop.reply_unroutable")

    # --- outbound ---

    def ping(self, dst, count: int = 4, interval: float = 1.0,
             size: int = 56, timeout: float = 1.0) -> PingStats:
        """Send count echo requests and gather round-trip statistics.

        An unanswered request counts as loss after the per-request
        timeout; resolution failures count the same way rather than
        aborting the run.
        """
        dst = addr.as_ip(dst)
        identifier = next(self._ident) & 0xFFFF
        data = bytes(i & 0xFF for i in range(size))
        rtts = []
        for sequence in range(count):
            started = time.perf_counter()
            rtt = self._one_ping(dst, identifier, sequence, data, timeout)
            if rtt is not None:
                rtts.append(rtt * 1000.0)
            if sequence + 1 < count:
                remaining = interval - (time.perf_counter() - started)
                if remaining > 0:
                    time.sleep(remaining)
        received = len(rtts)
        return PingStats(
            sent=count, received=received,
            loss=1.0 - received / count if count else 0.0,
            min_ms=min(rtts) if rtts else 0.0,
            avg_ms=sum(rtts) / received if rtts else 0.0,
            max_ms=max(rtts) if rtts else 0.0,
            rtts_ms=rtts,
        )

    def _one_ping(self, dst, identifier, sequence, data, timeout) -> float | None:
        reply_q = MessageQueue(1)
        key = (identifier, sequence)
        with self._waiters_lock:
            if self._ended:  # nobody would answer, or close, reply_q
                return None
            self._waiters[key] = reply_q
        request = wire.IcmpEcho(icmp_type=wire.ICMP_ECHO_REQUEST,
                                identifier=identifier, sequence=sequence, data=data)
        sent_at = time.perf_counter()
        try:
            self.ipv4.send(dst, wire.PROTO_ICMP, request.encode())
        except NetstackError:
            with self._waiters_lock:
                self._waiters.pop(key, None)
            return None
        try:
            arrived_at, _echo = reply_q.recv(timeout=timeout)
        except (Timeout, Closed):
            with self._waiters_lock:
                self._waiters.pop(key, None)
            return None
        return arrived_at - sent_at
