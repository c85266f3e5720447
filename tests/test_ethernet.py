"""Ethernet demux and framing over a live stack pair."""

import threading

from conftest import wait_until

from netstack import errors, wire
from netstack.csp import Counters, MessageQueue
from netstack.ethernet import EthernetLayer


def test_outbound_frames_carry_our_mac_and_ethertype(rig):
    a, b = rig()
    # a raw payload pushed straight out through the ethernet layer
    seen = MessageQueue(16)
    b.eth.registry.bind(0x1234, seen)
    seen = seen.units()
    a.eth.send(b.eth.mac, 0x1234, b"hello ether")
    frame = seen.recv(timeout=2.0)
    assert frame.src_mac == a.eth.mac
    assert frame.dst_mac == b.eth.mac
    assert frame.payload == b"hello ether"


def test_foreign_unicast_frames_dropped_and_counted(rig):
    a, b = rig()
    before = b.counters.get("eth.drop.foreign")
    a.eth.send(b"\x02\x99\x99\x99\x99\x99", 0x0800, b"not for b")
    assert wait_until(lambda: b.counters.get("eth.drop.foreign") == before + 1)


def test_unbound_ethertype_counts_drop(rig):
    a, b = rig()
    a.eth.send(b.eth.mac, 0x88B5, b"experimental")
    assert wait_until(lambda: b.counters.get("eth.drop.unbound") >= 1)


def test_broadcast_frames_are_accepted(rig):
    a, b = rig()
    seen = MessageQueue(16)
    b.eth.registry.bind(0x88B6, seen)
    seen = seen.units()
    a.eth.send(b"\xff" * 6, 0x88B6, b"to everyone")
    assert seen.recv(timeout=2.0).payload == b"to everyone"


def test_oversize_payload_rejected(rig):
    import pytest
    from netstack import errors
    a, _b = rig()
    with pytest.raises(errors.FrameTooLarge):
        a.eth.send(b"\xff" * 6, 0x0800, bytes(1501))
    a.eth.send(b"\xff" * 6, 0x0800, bytes(1500))


def test_concurrent_senders_produce_intact_frames(rig):
    a, b = rig()
    seen = MessageQueue(4096)
    b.eth.registry.bind(0x88B7, seen)
    seen = seen.units()
    n_senders, n_each = 20, 5

    def sender(sid):
        for i in range(n_each):
            body = sid.to_bytes(2, "big") + i.to_bytes(2, "big")
            a.eth.send(b.eth.mac, 0x88B7, body + bytes(96))

    threads = [threading.Thread(target=sender, args=(s,), daemon=True)
               for s in range(n_senders)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(2.0)
    got = {bytes(seen.recv(timeout=2.0).payload[:4]) for _ in range(n_senders * n_each)}
    want = {s.to_bytes(2, "big") + i.to_bytes(2, "big")
            for s in range(n_senders) for i in range(n_each)}
    assert got == want


class _Ring:
    """A device whose frames have all arrived: a read takes every frame up to
    the next pause in the script, and a pause ends one read.  The end is
    Closed."""

    PAUSE = object()

    def __init__(self, script):
        self.script = list(script)

    def read_frames(self, n: int, timeout: float = None) -> list:
        frames = []
        while self.script and len(frames) < n:
            item = self.script.pop(0)
            if item is self.PAUSE:
                break
            frames.append(item)
        if not frames:
            raise errors.Closed("device is closed")
        return frames


def test_link_reader_hands_over_bursts_and_counts_each_frame_it_drops():
    frames = [bytes([i]) * 60 for i in range(6)]
    counters = Counters()
    eth = EthernetLayer(_Ring([*frames[:3], _Ring.PAUSE, *frames[3:]]), bytes(6),
                        counters, None, queue_capacity=4)
    eth._read_loop()  # no dealer runs, so the inbox fills up
    # the second wake found 3 frames with room for 1: it keeps the first
    assert list(eth.inbound) == [frames[:3], frames[3:4]]
    assert counters.get("link.drop.overflow") == 2
