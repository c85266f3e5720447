"""Ethernet: ethertype demux inbound, framing outbound.

The link reader pumps raw frames into the dealer's inbox with a
non-blocking send, modelling a NIC ring that overflows rather than
stalling the wire.  Everything above this layer blocks instead.

Teardown starts here: when the device is closed, the link reader closes
the dealer's inbox, and the dealer, once it has drained it, closes every
queue bound in its registry, the ARP and IPv4 inboxes.
"""

from __future__ import annotations

from netstack import addr, wire
from netstack.csp import BindingRegistry, Counters, MessageQueue, TaskSet
from netstack.errors import Closed, FrameTooLarge, WireError


class EthernetLayer:
    def __init__(self, device, mac: bytes, counters: Counters, tasks: TaskSet,
                 queue_capacity: int):
        self.device = device
        self.mac = mac
        self.counters = counters
        self.tasks = tasks
        self.registry = BindingRegistry("eth", counters)  # ethertype -> queue
        self.inbound = MessageQueue(queue_capacity)

    def start(self) -> None:
        self.tasks.spawn("link-reader", self._read_loop)
        self.tasks.spawn("eth-dealer", self._dealer_loop)

    def _read_loop(self) -> None:
        while True:
            try:
                frame = self.device.read_frame()
            except Closed:
                self.inbound.close()
                return
            if not self.inbound.send_nowait(frame):  # only this task closes inbound
                self.counters.incr("link.drop.overflow")

    def _dealer_loop(self) -> None:
        for raw in self.inbound:
            try:
                frame = wire.decode("ethernet", raw)
            except WireError:
                self.counters.incr("eth.drop.decode")
                continue
            if frame.dst_mac != self.mac and frame.dst_mac != addr.BROADCAST_MAC:
                self.counters.incr("eth.drop.foreign")
                continue
            self.registry.dispatch(frame.ethertype, frame)
        self.registry.close()

    def send(self, dst_mac: bytes, ethertype: int, payload: bytes) -> None:
        """Frame payload with our source MAC and put it on the wire."""
        if len(payload) > self.device.mtu:
            raise FrameTooLarge(f"{len(payload)} bytes exceeds mtu {self.device.mtu}")
        raw = wire.EthernetFrame(dst_mac, self.mac, ethertype, payload).encode()
        try:
            self.device.write_frame(raw)
        except Closed:
            # the stack is coming down around us; nothing useful to do
            self.counters.incr("eth.drop.device_closed")
