"""Resolution, caching, single-flight, and timeout behaviour."""

import sys
import threading
import time
from types import SimpleNamespace

import pytest

from conftest import wait_until

from netstack import addr, errors, link, stack, wire
from netstack.arp import MAX_REQUESTS, ArpLayer
from netstack.config import StackConfig
from netstack.csp import Counters


def test_two_stacks_resolve_each_other(rig):
    a, b = rig()
    mac = a.arp.resolve(addr.parse_ip("10.0.0.2"))
    assert mac == b.eth.mac


def test_second_resolve_hits_the_cache(rig):
    a, b = rig()
    target = addr.parse_ip("10.0.0.2")
    a.arp.resolve(target)
    sent_before = a.counters.get("arp.tx.request")
    assert a.arp.resolve(target) == b.eth.mac
    assert a.counters.get("arp.tx.request") == sent_before


def test_cache_hits_send_no_message_to_the_dealer(rig):
    a, b = rig()
    target = addr.parse_ip("10.0.0.2")
    a.arp.resolve(target)  # warm-up: the one miss goes through the dealer
    messages = []
    original = a.arp.inbound.send

    def recording_send(item, timeout=None):
        messages.append(item)
        return original(item, timeout)

    a.arp.inbound.send = recording_send
    assert [a.arp.resolve(target) for _ in range(100)] == [b.eth.mac] * 100
    assert messages == []


def test_resolvers_read_consistent_entries_while_the_dealer_republishes(rig):
    a, _b = rig()
    entries = {addr.parse_ip(f"10.0.0.{100 + i}"): bytes([2, 0xaa, 0, 0, 0, i])
               for i in range(20)}
    for ip, mac in entries.items():
        a.arp.add_static(ip, mac)
    wrong = []
    stop = threading.Event()

    def resolver():
        while not stop.is_set():
            for ip, mac in entries.items():
                got = a.arp.resolve(ip)
                if got != mac:
                    wrong.append((ip, got))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=resolver, daemon=True) for _ in range(8)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            for ip, mac in entries.items():
                a.arp.add_static(ip, mac)  # every one makes the dealer republish
        stop.set()
        for t in threads:
            t.join(5.0)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert a.counters.get("arp.tx.request") == 0


def test_resolve_with_no_peer_times_out(rig):
    a, _b = rig()
    start = time.monotonic()
    with pytest.raises(errors.ResolutionTimeout):
        a.arp.resolve(addr.parse_ip("10.0.0.99"))
    elapsed = time.monotonic() - start
    # three requests at 200 ms spacing, so failure lands near 600 ms
    assert 0.45 < elapsed < 1.5
    assert a.counters.get("arp.tx.request") == 3


def test_concurrent_resolvers_share_one_request_flight(rig):
    a, b = rig()
    target = addr.parse_ip("10.0.0.2")
    results = []

    def resolver():
        results.append(a.arp.resolve(target))

    threads = [threading.Thread(target=resolver, daemon=True) for _ in range(5)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(3.0)
    assert results == [b.eth.mac] * 5
    assert a.counters.get("arp.tx.request") <= MAX_REQUESTS


def test_request_for_other_ip_gets_no_reply(rig):
    a, b = rig()
    sent_before = b.counters.get("arp.tx.reply")
    with pytest.raises(errors.ResolutionTimeout):
        a.arp.resolve(addr.parse_ip("10.0.0.77"))
    assert b.counters.get("arp.tx.reply") == sent_before


def test_static_entry_means_no_wire_traffic(rig):
    a, _b = rig()
    ip = addr.parse_ip("10.0.0.50")
    mac = addr.parse_mac("02:aa:aa:aa:aa:aa")
    a.arp.add_static(ip, mac)
    assert a.arp.resolve(ip) == mac
    assert a.counters.get("arp.tx.request") == 0


def test_peers_learn_from_requests_that_target_them(rig):
    a, b = rig()
    a.arp.resolve(addr.parse_ip("10.0.0.2"))
    # b saw a's request, so its own resolve needs no wire round trip
    before = b.counters.get("arp.tx.request")
    assert b.arp.resolve(addr.parse_ip("10.0.0.1")) == a.eth.mac
    assert b.counters.get("arp.tx.request") == before


def test_only_requests_for_us_add_senders_but_any_refreshes_them(solo):
    s, far_end = solo()
    target = addr.parse_ip("10.0.0.77")  # some other host on the segment

    def arp(opcode, sender_ip, sender_mac, target_ip):
        pkt = wire.ArpPacket(opcode=opcode, sender_mac=sender_mac,
                             sender_ip=sender_ip, target_mac=bytes(6),
                             target_ip=target_ip)
        far_end.write_frame(wire.EthernetFrame(
            dst_mac=addr.BROADCAST_MAC, src_mac=sender_mac,
            ethertype=wire.ETHERTYPE_ARP, payload=pkt.encode()).encode())

    known, stranger = addr.parse_ip("10.0.0.98"), addr.parse_ip("10.0.0.99")
    old_mac, new_mac = bytes([2, 0, 0, 0, 0, 0x98]), bytes([2, 0, 0, 0, 0, 0x99])
    arp(wire.ARP_REQUEST, known, old_mac, s.ip)  # asks for us: learned
    assert wait_until(lambda: known in s.arp._published)
    # "who-has 10.0.0.77 tell 10.0.0.99" is not for us: 10.0.0.99 stays out
    arp(wire.ARP_REQUEST, stranger, new_mac, target)
    # the same kind of request refreshes a sender already known
    arp(wire.ARP_REQUEST, known, new_mac, target)
    assert wait_until(lambda: s.arp._published[known][0] == new_mac)
    assert stranger not in s.arp._published


def test_expired_cache_entries_are_not_returned():
    cfg_a = StackConfig(ip="10.0.0.1", mac="02:00:00:00:00:01",
                        arp_timeout_ms=200, arp_cache_ttl_ms=150)
    cfg_b = StackConfig(ip="10.0.0.2", mac="02:00:00:00:00:02")
    a, b = stack.linked_stacks(link.ImpairmentProfile(), cfg_a, cfg_b)
    try:
        target = addr.parse_ip("10.0.0.2")
        a.arp.resolve(target)
        assert a.counters.get("arp.tx.request") == 1
        time.sleep(0.25)
        a.arp.resolve(target)
        assert a.counters.get("arp.tx.request") == 2
    finally:
        a.down()
        b.down()


def test_a_handed_over_reply_leaves_only_if_an_arp_packet_ahead_of_it_taught_the_dealer():
    """A peer's announcement, then a reply to it and one to a host nobody
    announced, through the ARP dealer with no thread."""
    ours, theirs, stranger = (addr.parse_ip(ip) for ip in ("10.0.0.1", "10.0.0.2", "10.0.0.9"))
    their_mac = b"\x02\x00\x00\x00\x00\x02"
    sent = []
    eth = SimpleNamespace(mac=b"\x02\x00\x00\x00\x00\x01",
                          send=lambda mac, ethertype, payload: sent.append((mac, payload)))
    layer = ArpLayer(eth, ours, Counters(), None, queue_capacity=8)
    announce = wire.ArpPacket(opcode=wire.ARP_REPLY, sender_mac=their_mac, sender_ip=theirs,
                              target_mac=b"\xff" * 6, target_ip=ours)
    layer.inbound.send([wire.EthernetFrame(b"\xff" * 6, their_mac, wire.ETHERTYPE_ARP,
                                           announce.encode())])
    assert theirs not in layer._published  # the dealer has not taken the burst yet
    layer.send_if_cached(theirs, wire.ETHERTYPE_IPV4, [b"rst"], "tcp.drop.unroutable")
    layer.send_if_cached(stranger, wire.ETHERTYPE_IPV4, [b"echo"],
                         "icmp.drop.reply_unroutable")
    layer.inbound.close()
    layer._dealer_loop()
    assert sent == [(their_mac, b"rst")]
    assert layer.counters.get("tcp.drop.unroutable") == 0
    assert layer.counters.get("icmp.drop.reply_unroutable") == 1
    assert layer.counters.get("arp.tx.request") == 0
