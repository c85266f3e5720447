"""Ethernet: ethertype demux inbound, framing outbound.

The link reader waits for a frame and takes, in the same device call
(``read_frames``), every frame the device already holds behind it, up
to the inbox's capacity; it hands them to the dealer as one burst with
a non-blocking send.  That models a NIC ring that overflows rather than
stalling the wire: the frames that do not fit are dropped, each counted
as ``link.drop.overflow``.  Everything above this layer blocks instead.
The dealer sends one burst per run of one ethertype in each burst it
takes, as NAPI's poll hands a list up the stack.

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
        read, inbound = self.device.read_frames, self.inbound
        while True:
            try:
                burst = read(inbound.capacity)
            except Closed:
                break
            # only this task adds to inbound or closes it, so the room can only grow
            room = inbound.capacity - len(inbound)
            if len(burst) > room:
                self.counters.incr("link.drop.overflow", len(burst) - room)
                del burst[room:]
            if burst:
                inbound.send_nowait(burst)
        inbound.close()

    def _dealer_loop(self) -> None:
        for burst in self.inbound:
            # one burst per run of one ethertype: a frame is never handed up
            # before one that came ahead of it on the wire, so an ARP packet
            # is in the ARP dealer's inbox before any IPv4 packet behind it
            # reaches the IP dealer
            run, ethertype = [], None
            for raw in burst:
                try:
                    frame = wire.decode("ethernet", raw)
                except WireError:
                    self.counters.incr("eth.drop.decode")
                    continue
                if frame.dst_mac != self.mac and frame.dst_mac != addr.BROADCAST_MAC:
                    self.counters.incr("eth.drop.foreign")
                    continue
                if frame.ethertype != ethertype and run:
                    self.registry.dispatch(ethertype, run)
                    run = []
                ethertype = frame.ethertype
                run.append(frame)
            if run:
                self.registry.dispatch(ethertype, run)
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
