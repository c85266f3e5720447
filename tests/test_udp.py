"""Datagram socket binding, delivery, and drop accounting."""

import random

import pytest

from conftest import send_paced, wait_until

from netstack import addr, errors, wire

A_IP = addr.parse_ip("10.0.0.1")
B_IP = addr.parse_ip("10.0.0.2")


def test_bind_and_exchange(rig):
    a, b = rig()
    server = b.udp.bind(4000)
    client = a.udp.bind(0)
    client.send_to(B_IP, 4000, b"hello over there")
    src_ip, src_port, payload = server.recv_from(timeout=2.0)
    assert (src_ip, src_port, payload) == (A_IP, client.port, b"hello over there")
    server.send_to(A_IP, src_port, b"and back")
    assert client.recv_from(timeout=2.0)[2] == b"and back"


def test_double_bind_refused(rig):
    a, _b = rig()
    a.udp.bind(5000)
    with pytest.raises(errors.AlreadyBound):
        a.udp.bind(5000)


def test_ephemeral_ports_are_distinct(rig):
    a, _b = rig()
    ports = {a.udp.bind(0).port for _ in range(50)}
    assert len(ports) == 50
    assert all(49152 <= p <= 65535 for p in ports)


def test_closed_socket_frees_port(rig):
    a, _b = rig()
    sock = a.udp.bind(6000)
    sock.close()
    assert wait_until(lambda: 6000 not in a.udp.bound_ports())
    a.udp.bind(6000)


def test_large_datagram_crosses_fragmentation(rig):
    a, b = rig()
    server = b.udp.bind(4001)
    client = a.udp.bind(0)
    payload = bytes(random.Random(3).randbytes(3000))
    client.send_to(B_IP, 4001, payload)
    assert server.recv_from(timeout=3.0)[2] == payload


def test_fragmented_exchange_spawns_no_task(rig):
    a, b = rig()
    server = b.udp.bind(4009)
    client = a.udp.bind(0)
    spawned = []
    for s in (a, b):
        original = s.tasks.spawn

        def recording_spawn(name, fn, *args, _original=original):
            spawned.append(name)
            return _original(name, fn, *args)

        s.tasks.spawn = recording_spawn
    payload = bytes(random.Random(4).randbytes(6000))
    for _ in range(5):
        client.send_to(B_IP, 4009, payload)
        src_ip, src_port, got = server.recv_from(timeout=3.0)
        assert got == payload
        server.send_to(src_ip, src_port, got)
        assert client.recv_from(timeout=3.0)[2] == payload
    assert b.counters.get("ip.reassembly.completed") == 5
    assert a.counters.get("ip.reassembly.completed") == 5
    assert spawned == []


def test_datagram_boundaries_preserved_in_order(rig):
    a, b = rig()
    server = b.udp.bind(4002)
    client = a.udp.bind(0)
    sent = [bytes([i]) * (i + 1) for i in range(30)]
    for msg in sent:
        client.send_to(B_IP, 4002, msg)
    got = [server.recv_from(timeout=2.0)[2] for _ in range(30)]
    assert got == sent


def test_empty_payload_allowed(rig):
    a, b = rig()
    server = b.udp.bind(4003)
    a.udp.bind(0).send_to(B_IP, 4003, b"")
    assert server.recv_from(timeout=2.0)[2] == b""


def test_max_payload_boundary(rig):
    a, b = rig()
    server = b.udp.bind(4004)
    client = a.udp.bind(0)
    client.send_to(B_IP, 4004, bytes(65507))
    assert len(server.recv_from(timeout=5.0)[2]) == 65507
    with pytest.raises(errors.LengthError):
        client.send_to(B_IP, 4004, bytes(65508))


def test_recv_timeout(rig):
    a, _b = rig()
    sock = a.udp.bind(4005)
    with pytest.raises(errors.Timeout):
        sock.recv_from(timeout=0.15)


def test_unbound_port_counts_drop(rig):
    a, b = rig()
    a.udp.bind(0).send_to(B_IP, 9999, b"nobody home")
    assert wait_until(lambda: b.counters.get("udp.drop.unbound") == 1)


def test_full_socket_queue_counts_drop(rig):
    a, b = rig(b_over={"queue_capacity": 4})
    server = b.udp.bind(4006)
    client = a.udp.bind(0)
    send_paced(client, b, server, [b"x%d" % i for i in range(40)])
    assert wait_until(lambda: b.counters.get("udp.drop.full") > 0, timeout=3.0)
    assert b.counters.get("link.drop.overflow") == 0
    # whatever was queued is still readable
    assert server.recv_from(timeout=2.0)[2].startswith(b"x")


def test_checksum_zero_accepted(rig):
    a, _b = rig()
    server = a.udp.bind(4007)
    raw = bytearray(wire.encode(wire.UdpDatagram(1234, 4007, b"lazy sender"),
                                src_ip=B_IP, dst_ip=A_IP))
    raw[6:8] = b"\x00\x00"  # sender that never computed a checksum
    pkt = wire.Ipv4Packet(src_ip=B_IP, dst_ip=A_IP, protocol=wire.PROTO_UDP,
                          payload=bytes(raw))
    a.ipv4.inbound.send(("packet", pkt))
    assert server.recv_from(timeout=2.0)[2] == b"lazy sender"


def test_corrupt_checksum_dropped(rig):
    a, _b = rig()
    server = a.udp.bind(4008)
    raw = bytearray(wire.encode(wire.UdpDatagram(1234, 4008, b"mangled"),
                                src_ip=B_IP, dst_ip=A_IP))
    raw[-1] ^= 0xFF
    pkt = wire.Ipv4Packet(src_ip=B_IP, dst_ip=A_IP, protocol=wire.PROTO_UDP,
                          payload=bytes(raw))
    a.ipv4.inbound.send(("packet", pkt))
    assert wait_until(lambda: a.counters.get("udp.drop.decode") == 1)
    with pytest.raises(errors.Timeout):
        server.recv_from(timeout=0.2)


def test_out_of_range_ports_are_refused(rig):
    a, _b = rig()
    with pytest.raises(errors.ConfigError):
        a.udp.bind(70000)
    assert a.udp.bound_ports() == []
    sock = a.udp.bind(0)
    with pytest.raises(errors.ConfigError):
        sock.send_to(B_IP, 70000, b"x")
