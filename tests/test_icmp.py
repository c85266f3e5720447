"""Echo request/reply behaviour and ping session bookkeeping."""

import threading
import time

import pytest

from conftest import wait_until

from netstack import addr, errors, wire

A_IP = addr.parse_ip("10.0.0.1")
B_IP = addr.parse_ip("10.0.0.2")


def test_fifty_pings_lossless(rig):
    a, _b = rig()
    stats = a.icmp.ping(B_IP, count=50, interval=0.0, size=56, timeout=2.0)
    assert stats.sent == 50 and stats.received == 50
    assert stats.loss == 0.0
    assert stats.min_ms <= stats.avg_ms <= stats.max_ms


def test_reply_mirrors_identifier_sequence_and_data(rig):
    a, b = rig()
    seen = []
    original_send = b.ipv4.send

    def spy(dst, proto, payload):
        if proto == wire.PROTO_ICMP:
            seen.append(wire.decode("icmp", payload))
        original_send(dst, proto, payload)

    b.ipv4.send = spy
    stats = a.icmp.ping(B_IP, count=3, interval=0.0, size=24)
    assert stats.received == 3
    assert wait_until(lambda: len(seen) == 3)
    for echo in seen:
        assert echo.icmp_type == wire.ICMP_ECHO_REPLY and echo.code == 0
        assert len(echo.data) == 24


def test_concurrent_sessions_do_not_cross_wires(rig):
    a, _b = rig()
    results = {}

    def session(tag):
        results[tag] = a.icmp.ping(B_IP, count=10, interval=0.0, size=32)

    threads = [threading.Thread(target=session, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i in range(8):
        assert results[i].received == 10, f"session {i} lost replies"


def test_silent_peer_counts_loss(rig):
    a, b = rig()
    b.icmp.inbound.close()  # peer stack stops answering
    stats = a.icmp.ping(B_IP, count=3, interval=0.0, timeout=0.3)
    assert stats.sent == 3 and stats.received == 0
    assert stats.loss == 1.0
    assert stats.rtts_ms == []


def test_no_waiters_left_after_sessions(rig):
    a, _b = rig()
    a.icmp.ping(B_IP, count=5, interval=0.0)
    assert a.icmp.waiter_count() == 0


def test_waiters_cleaned_after_timeouts(rig):
    a, b = rig()
    b.icmp.inbound.close()
    a.icmp.ping(B_IP, count=4, interval=0.0, timeout=0.2)
    assert a.icmp.waiter_count() == 0


def test_late_reply_is_counted_not_crashed(rig):
    a, _b = rig()
    late = wire.IcmpEcho(icmp_type=wire.ICMP_ECHO_REPLY, identifier=9999,
                         sequence=1, data=bytes(56))
    pkt = wire.Ipv4Packet(src_ip=B_IP, dst_ip=A_IP, protocol=wire.PROTO_ICMP,
                          payload=wire.encode(late))
    a.ipv4.inbound.send(("packet", pkt))
    assert wait_until(lambda: a.counters.get("icmp.drop.late") == 1)
    # layer still functional afterwards
    assert a.icmp.ping(B_IP, count=1, interval=0.0).received == 1


def test_ping_payload_sizes(rig):
    a, _b = rig()
    for size in (0, 1, 56, 1000):
        stats = a.icmp.ping(B_IP, count=2, interval=0.0, size=size)
        assert stats.received == 2, f"size {size} failed"


def test_lossy_wire_reports_partial_loss(rig):
    a, _b = rig(loss=0.4, seed=11)
    stats = a.icmp.ping(B_IP, count=20, interval=0.0, timeout=0.3)
    assert 0 < stats.received < 20
    assert stats.loss == pytest.approx(1 - stats.received / 20)


def test_ping_in_flight_at_down_counts_as_lost_at_once(rig):
    a, b = rig()
    assert a.icmp.ping(B_IP, count=1, interval=0.0).received == 1  # B is in a's ARP cache
    b.down()  # no reply can come
    result = []
    pinger = threading.Thread(
        target=lambda: result.append(a.icmp.ping(B_IP, count=1, timeout=5.0)))
    pinger.start()
    time.sleep(0.2)
    a.down()
    downed_at = time.monotonic()
    pinger.join(5.0)
    assert time.monotonic() - downed_at < 1.0  # not the whole 5 s timeout
    [stats] = result
    assert stats.sent == 1 and stats.received == 0 and stats.loss == 1.0


def test_ping_after_down_is_lost_at_once(rig):
    a, _b = rig()
    assert a.icmp.ping(B_IP, count=1, interval=0.0).received == 1
    a.down()
    started = time.monotonic()
    stats = a.ping(B_IP, count=3, interval=0, timeout=1.5)
    assert time.monotonic() - started < 0.5  # not three 1.5 s timeouts
    assert stats.sent == 3 and stats.received == 0
    assert a.icmp.waiter_count() == 0
