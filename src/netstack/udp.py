"""UDP sockets behind a single packet dealer.

A socket's receive queue dropping its newest datagram when full is
deliberate: blocking here would let one slow application stall the
IP reader, and datagram loss is within the protocol's rules.
"""

from __future__ import annotations

import threading

from netstack import addr, wire
from netstack.csp import Counters, MessageQueue, TaskSet
from netstack.errors import AlreadyBound, Closed, WireError


class UdpSocket:
    def __init__(self, layer: "UdpLayer", port: int, queue_capacity: int):
        self.port = port
        self._layer = layer
        self.queue = MessageQueue(queue_capacity)

    def send_to(self, dst_ip, dst_port: int, payload: bytes) -> None:
        dst = addr.as_ip(dst_ip)
        datagram = wire.UdpDatagram(self.port, addr.as_port(dst_port), bytes(payload))
        self._layer.ipv4.send(dst, wire.PROTO_UDP,
                              datagram.encode(self._layer.our_ip, dst))

    def recv_from(self, timeout: float = None):
        """Block for the next datagram as (source ip, source port, payload)."""
        return self.queue.recv(timeout)

    def close(self) -> None:
        self._layer._unbind(self.port)
        self.queue.close()


class UdpLayer:
    def __init__(self, ipv4, config, counters: Counters, tasks: TaskSet):
        self.ipv4 = ipv4
        self.our_ip = config.ip_bytes
        self.counters = counters
        self.tasks = tasks
        self.queue_capacity = config.queue_capacity
        self.inbound = MessageQueue(config.queue_capacity)
        self._ports = {}  # port -> UdpSocket
        self._lock = threading.Lock()
        self._next_ephemeral = addr.EPHEMERAL_FIRST

    def start(self) -> None:
        self.ipv4.registry.bind(wire.PROTO_UDP, self.inbound)
        self.tasks.spawn("udp-dealer", self._dealer_loop)

    def bind(self, port: int = 0) -> UdpSocket:
        port = addr.as_port(port)
        with self._lock:
            if port == 0:
                port = addr.pick_ephemeral(self._next_ephemeral,
                                           self._ports.__contains__, "udp")
                self._next_ephemeral = port + 1
            elif port in self._ports:
                raise AlreadyBound(f"udp port {port}")
            sock = UdpSocket(self, port, self.queue_capacity)
            self._ports[port] = sock
            return sock

    def _unbind(self, port: int) -> None:
        with self._lock:
            self._ports.pop(port, None)

    def bound_ports(self) -> list[int]:
        with self._lock:
            return sorted(self._ports)

    def close_all(self) -> None:
        with self._lock:
            sockets = list(self._ports.values())
        for sock in sockets:
            sock.close()

    def _dealer_loop(self) -> None:
        for datagram in self.inbound:
            try:
                dgram = wire.decode("udp", datagram.payload,
                                    src_ip=datagram.src_ip, dst_ip=datagram.dst_ip)
            except WireError:
                self.counters.incr("udp.drop.decode")
                continue
            with self._lock:
                sock = self._ports.get(dgram.dst_port)
            if sock is None:
                self.counters.incr("udp.drop.unbound")
                continue
            try:
                if not sock.queue.send_nowait((datagram.src_ip, dgram.src_port, dgram.payload)):
                    self.counters.incr("udp.drop.full")
            except Closed:
                self.counters.incr("udp.drop.closed")
        self.close_all()
