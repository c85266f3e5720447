"""Fragmentation, reassembly, demux, and assembler lifecycle."""

import itertools
import random
import time

import pytest

from conftest import wait_until

from netstack import addr, errors, wire
from netstack.csp import MessageQueue
from netstack.ipv4 import fragment_payload

A_IP = addr.parse_ip("10.0.0.1")
B_IP = addr.parse_ip("10.0.0.2")

# 253 is reserved for experiments, so nothing else in the stack grabs it
TEST_PROTO = 253


def _bind_test_proto(s) -> MessageQueue:
    q = MessageQueue(64)
    s.ipv4.registry.bind(TEST_PROTO, q)
    return q


def _encoded_fragments(payload, mtu, src=B_IP, dst=A_IP, ident=41):
    packets = []
    for offset_units, more, chunk in fragment_payload(payload, mtu):
        packets.append(wire.Ipv4Packet(src_ip=src, dst_ip=dst, protocol=TEST_PROTO,
                                       payload=chunk, identification=ident,
                                       mf=more, fragment_offset=offset_units))
    return packets


def test_fragment_plan_matches_the_8_byte_rule():
    plan = fragment_payload(bytes(4000), 1500)
    assert [(o, m, len(c)) for o, m, c in plan] == [
        (0, True, 1480), (185, True, 1480), (370, False, 1040)]
    plan = fragment_payload(bytes(100), 1500)
    assert [(o, m, len(c)) for o, m, c in plan] == [(0, False, 100)]
    plan = fragment_payload(bytes(1200), 576)
    assert [(o, m, len(c)) for o, m, c in plan] == [
        (0, True, 552), (69, True, 552), (138, False, 96)]


def test_oversize_send_rejected(rig):
    a, _b = rig()
    with pytest.raises(errors.LengthError):
        a.ipv4.send(B_IP, TEST_PROTO, bytes(65516))


def test_unfragmented_delivery_between_stacks(rig):
    a, b = rig()
    q = _bind_test_proto(b)
    a.ipv4.send(B_IP, TEST_PROTO, b"direct payload")
    d = q.recv(timeout=2.0)
    assert (d.src_ip, d.dst_ip, d.protocol, d.payload) == (A_IP, B_IP, TEST_PROTO,
                                                           b"direct payload")


def test_large_send_fragments_and_reassembles(rig):
    a, b = rig()
    q = _bind_test_proto(b)
    payload = bytes(random.Random(5).randbytes(4000))
    a.ipv4.send(B_IP, TEST_PROTO, payload)
    assert q.recv(timeout=2.0).payload == payload
    assert b.counters.get("ip.reassembly.completed") == 1
    assert wait_until(lambda: b.ipv4.assembler_count() == 0)


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_every_fragment_arrival_order_reassembles(rig, order):
    a, b = rig()
    q = _bind_test_proto(a)
    payload = bytes(random.Random(6).randbytes(4000))
    fragments = _encoded_fragments(payload, 1500)
    for i in order:
        a.ipv4.inbound.send(("packet", fragments[i]))
    assert q.recv(timeout=2.0).payload == payload


def test_duplicate_fragments_deliver_once(rig):
    a, _b = rig()
    q = _bind_test_proto(a)
    payload = bytes(random.Random(7).randbytes(3000))
    fragments = _encoded_fragments(payload, 1500)
    for pkt in fragments + fragments[:2]:
        a.ipv4.inbound.send(("packet", pkt))
    assert q.recv(timeout=2.0).payload == payload
    with pytest.raises(errors.Timeout):
        q.recv(timeout=0.3)


def test_conflicting_overlap_is_dropped(rig):
    a, _b = rig()
    q = _bind_test_proto(a)
    payload = bytes(random.Random(8).randbytes(3000))
    fragments = _encoded_fragments(payload, 1500)
    evil = wire.Ipv4Packet(src_ip=B_IP, dst_ip=A_IP, protocol=TEST_PROTO,
                           payload=bytes(len(fragments[0].payload)),
                           identification=41, mf=True, fragment_offset=0)
    a.ipv4.inbound.send(("packet", fragments[0]))
    a.ipv4.inbound.send(("packet", evil))  # disagrees with fragment 0's bytes
    for pkt in fragments[1:]:
        a.ipv4.inbound.send(("packet", pkt))
    assert q.recv(timeout=2.0).payload == payload
    assert a.counters.get("ip.drop.fragment_conflict") == 1


def test_conflicting_overlap_in_the_middle_is_dropped(rig):
    a, _b = rig()
    q = _bind_test_proto(a)
    payload = bytes(random.Random(9).randbytes(4000))
    fragments = _encoded_fragments(payload, 1500)
    # 200 bytes from 1400 on, across the first two fragments' boundary, all flipped
    evil = wire.Ipv4Packet(src_ip=B_IP, dst_ip=A_IP, protocol=TEST_PROTO,
                           payload=bytes(b ^ 0xFF for b in payload[1400:1600]),
                           identification=41, mf=True, fragment_offset=1400 // 8)
    for pkt in (fragments[1], fragments[0], evil, fragments[2]):
        a.ipv4.inbound.send(("packet", pkt))
    assert q.recv(timeout=2.0).payload == payload
    assert a.counters.get("ip.drop.fragment_conflict") == 1
    assert a.counters.get("ip.reassembly.completed") == 1


def test_two_cuts_under_one_identification_deliver_once(rig):
    a, _b = rig()
    q = _bind_test_proto(a)
    payload = bytes(random.Random(10).randbytes(4000))
    coarse = _encoded_fragments(payload, 1500)  # 3 fragments
    fine = _encoded_fragments(payload, 576)  # 8 fragments
    interleaved = [pkt for pair in itertools.zip_longest(coarse, fine)
                   for pkt in pair if pkt is not None]
    for pkt in interleaved:
        a.ipv4.inbound.send(("packet", pkt))
    assert q.recv(timeout=2.0).payload == payload
    with pytest.raises(errors.Timeout):
        q.recv(timeout=0.3)
    # the coarse cut completes the datagram at its third fragment; the fine
    # fragments after it start a reassembly that never completes and expires
    assert wait_until(lambda: a.ipv4.assembler_count() == 0, timeout=2.0)
    assert a.counters.get("ip.reassembly.completed") == 1
    assert a.counters.get("ip.drop.fragment_conflict") == 0


def _stray_past_the_end(ident):
    """A non-last fragment that starts where a 3000-byte datagram ends."""
    return wire.Ipv4Packet(src_ip=B_IP, dst_ip=A_IP, protocol=TEST_PROTO,
                           payload=bytes(1480), identification=ident,
                           mf=True, fragment_offset=3000 // 8)


def test_last_fragment_below_held_bytes_discards_the_reassembly(rig):
    # a long timeout, so only the discard can end the reassembly in time
    a, _b = rig(a_over={"reassembly_timeout_ms": 30_000})
    q = _bind_test_proto(a)
    payload = bytes(random.Random(11).randbytes(3000))
    fragments = _encoded_fragments(payload, 1500)
    for pkt in (fragments[0], _stray_past_the_end(41), fragments[-1]):
        a.ipv4.inbound.send(("packet", pkt))
    assert wait_until(lambda: a.counters.get("ip.drop.fragment_conflict") == 1, timeout=1.0)
    assert a.ipv4.assembler_count() == 0
    assert a.counters.get("ip.reassembly.timeout") == 0
    with pytest.raises(errors.Timeout):
        q.recv(timeout=0.2)


def test_fragment_past_a_known_end_is_dropped_alone(rig):
    a, _b = rig(a_over={"reassembly_timeout_ms": 30_000})
    q = _bind_test_proto(a)
    payload = bytes(random.Random(12).randbytes(3000))
    fragments = _encoded_fragments(payload, 1500)
    for pkt in (fragments[-1], _stray_past_the_end(41), *fragments[:-1]):
        a.ipv4.inbound.send(("packet", pkt))
    assert q.recv(timeout=2.0).payload == payload
    assert a.counters.get("ip.drop.fragment_conflict") == 1
    assert wait_until(lambda: a.ipv4.assembler_count() == 0)


def _random_fragment_plan(rng, size):
    """Fragments that cover size bytes: a random cut on 8-byte boundaries,
    plus agreeing overlaps and duplicates, shuffled.

    One fragment of the cut, sent last, is covered by nothing else, so the
    datagram completes with the last fragment sent and leaves no reassembly.
    """
    cuts = sorted(rng.sample(range(8, size, 8), min(rng.randrange(1, 12), (size - 1) // 8)))
    bounds = [0, *cuts, size]
    pieces = list(zip(bounds, bounds[1:]))
    final = rng.choice(pieces)
    extras = []
    for lo, hi in ((0, final[0]), (final[1], size)):  # the bytes around the final piece
        for _ in range(rng.randrange(0, 4) if hi > lo else 0):
            start = rng.randrange(lo, hi, 8)
            end = rng.choice([*range(start + 8, hi, 8), hi])
            if (start, end) != (0, size):  # that would be an unfragmented datagram
                extras.append((start, end))
    spans = [p for p in pieces if p != final] + extras
    spans += rng.sample(spans, min(len(spans), rng.randrange(0, 4)))  # duplicates
    rng.shuffle(spans)
    return spans + [final]


def test_random_cuts_overlaps_and_duplicates_reassemble(rig):
    a, _b = rig()
    q = _bind_test_proto(a)
    rng = random.Random(815)
    sizes = [1, 8, 9, 16, 17, 65515] + [rng.randrange(1, 65516) for _ in range(40)]
    fragmented = 0
    for ident, size in enumerate(sizes):
        payload = bytes(rng.randbytes(size))
        spans = _random_fragment_plan(rng, size)
        fragmented += len(spans) > 1
        for start, end in spans:
            pkt = wire.Ipv4Packet(src_ip=B_IP, dst_ip=A_IP, protocol=TEST_PROTO,
                                  payload=payload[start:end], identification=ident,
                                  mf=end < size, fragment_offset=start // 8)
            a.ipv4.inbound.send(("packet", pkt))
        assert q.recv(timeout=3.0).payload == payload, f"size {size}, spans {spans}"
        assert a.ipv4.assembler_count() == 0, f"size {size}, spans {spans}"
    assert a.counters.get("ip.reassembly.completed") == fragmented
    assert a.counters.get("ip.drop.fragment_conflict") == 0


def test_incomplete_reassembly_expires_without_delivery(rig):
    a, _b = rig()
    q = _bind_test_proto(a)
    fragments = _encoded_fragments(bytes(3000), 1500)
    for pkt in fragments[:2]:
        a.ipv4.inbound.send(("packet", pkt))
    assert wait_until(lambda: a.ipv4.assembler_count() == 1)
    # reassembly_timeout_ms is 800 in the test rig
    assert wait_until(lambda: a.ipv4.assembler_count() == 0, timeout=2.0)
    assert a.counters.get("ip.reassembly.timeout") == 1
    with pytest.raises(errors.Timeout):
        q.recv(timeout=0.2)


def test_incomplete_reassembly_expires_under_steady_traffic(rig):
    a, _b = rig()
    fragments = _encoded_fragments(bytes(3000), 1500)
    a.ipv4.inbound.send(("packet", fragments[0]))
    assert wait_until(lambda: a.ipv4.assembler_count() == 1)
    # back-to-back packets keep the dealer busy, so a dealer that expired
    # entries only when its recv timed out would keep this one forever;
    # each packet is dropped as not ours straight away
    stray = wire.Ipv4Packet(src_ip=B_IP, dst_ip=addr.parse_ip("10.0.0.77"),
                            protocol=TEST_PROTO, payload=b"tick")
    budget = a.config.reassembly_timeout_ms / 1000 + 1.0
    deadline = time.monotonic() + budget
    while a.ipv4.assembler_count() and time.monotonic() < deadline:
        a.ipv4.inbound.send(("packet", stray))
    assert a.ipv4.assembler_count() == 0, f"still pending after {budget}s of traffic"
    assert a.counters.get("ip.reassembly.timeout") == 1
    assert a.counters.get("ip.drop.not_ours") > 0


def test_abandoned_keys_all_clean_up(rig):
    a, _b = rig()
    _bind_test_proto(a)
    for ident in range(100):
        fragments = _encoded_fragments(bytes(3000), 1500, ident=ident)
        a.ipv4.inbound.send(("packet", fragments[0]))
    assert wait_until(lambda: a.ipv4.assembler_count() == 100)
    assert wait_until(lambda: a.ipv4.assembler_count() == 0, timeout=3.0)


def test_packets_not_for_us_are_dropped(rig):
    a, _b = rig()
    stray = wire.Ipv4Packet(src_ip=B_IP, dst_ip=addr.parse_ip("10.0.0.77"),
                            protocol=TEST_PROTO, payload=b"misdelivered")
    a.ipv4.inbound.send(("packet", stray))
    assert wait_until(lambda: a.counters.get("ip.drop.not_ours") == 1)


def test_unbound_protocol_counts_drop(rig):
    a, b = rig()
    a.ipv4.send(B_IP, 199, b"no such protocol")
    assert wait_until(lambda: b.counters.get("ip.drop.unbound") == 1)


def test_send_reassemble_identity_under_random_orders(rig):
    a, _b = rig()
    q = _bind_test_proto(a)
    rng = random.Random(99)
    for trial, size in enumerate([1, 8, 1480, 1481, 4000, 16384]):
        payload = bytes(rng.randbytes(size))
        fragments = _encoded_fragments(payload, 576, ident=100 + trial)
        rng.shuffle(fragments)
        for pkt in fragments:
            a.ipv4.inbound.send(("packet", pkt))
        assert q.recv(timeout=3.0).payload == payload


def test_loopback_send_to_own_address(rig):
    a, _b = rig()
    q = _bind_test_proto(a)
    a.ipv4.send(A_IP, TEST_PROTO, b"to myself")
    d = q.recv(timeout=2.0)
    assert d.payload == b"to myself" and d.src_ip == A_IP


def test_off_subnet_without_gateway_is_no_route(rig):
    a, _b = rig()
    with pytest.raises(errors.NoRoute):
        a.ipv4.send(addr.parse_ip("192.168.9.9"), TEST_PROTO, b"x")


def _two_fragments_ending_at(end, ident):
    first = wire.Ipv4Packet(src_ip=B_IP, dst_ip=A_IP, protocol=TEST_PROTO,
                            payload=bytes(65000), identification=ident,
                            mf=True)
    last = wire.Ipv4Packet(src_ip=B_IP, dst_ip=A_IP, protocol=TEST_PROTO,
                           payload=b"\x01" * (end - 65000), identification=ident,
                           fragment_offset=65000 // 8)
    return first, last


def test_reassembly_refuses_a_datagram_over_65535_bytes(rig):
    # 65516 payload bytes plus a 20-byte header would be a 65536-byte datagram
    a, _b = rig()
    q = _bind_test_proto(a)
    for pkt in _two_fragments_ending_at(65516, ident=7):
        a.ipv4.inbound.send(("packet", pkt))
    assert wait_until(lambda: a.counters.get("ip.drop.oversize") == 1)
    assert a.counters.get("ip.reassembly.completed") == 0
    with pytest.raises(errors.Timeout):
        q.recv(timeout=0.2)


def test_reassembly_accepts_a_datagram_of_exactly_65535_bytes(rig):
    a, _b = rig()
    q = _bind_test_proto(a)
    for pkt in _two_fragments_ending_at(65515, ident=8):
        a.ipv4.inbound.send(("packet", pkt))
    d = q.recv(timeout=2.0)
    assert d.payload == bytes(65000) + b"\x01" * 515
    assert a.counters.get("ip.drop.oversize") == 0
