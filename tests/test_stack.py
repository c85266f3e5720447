"""Whole-stack lifecycle: bring-up, teardown, and task hygiene."""

import threading
import time

import pytest

from conftest import fast_config, send_paced, wait_until, A_IP, B_IP

from netstack import addr, errors, link, stack, wire
from netstack.csp import MessageQueue


def test_up_down_leaves_no_tasks():
    profile = link.ImpairmentProfile()
    a, b = stack.linked_stacks(profile, fast_config(A_IP, "02:00:00:00:00:01"),
                               fast_config(B_IP, "02:00:00:00:00:02"))
    assert a.tasks.census() > 0
    a.ping(B_IP, count=2, interval=0.0)
    b.down()
    a.down()
    assert a.tasks.census() == 0, a.tasks.names()
    assert b.tasks.census() == 0, b.tasks.names()


def test_default_stack_runs_eight_tasks_one_ip_reader_one_icmp():
    a, b = stack.linked_stacks(link.ImpairmentProfile())
    try:
        names = a.tasks.names()
        assert [n for n in names if n.startswith("ping-")] == ["ping-dealer"], names
        assert [n for n in names if n.startswith("ip-reader")] == ["ip-reader"], names
        assert len(names) == 8, names
    finally:
        b.down()
        a.down()


def test_unroutable_echo_request_is_counted_and_ping_still_works(rig):
    a, _b = rig()  # no gateway configured
    request = wire.IcmpEcho(icmp_type=wire.ICMP_ECHO_REQUEST, identifier=77,
                            sequence=1, data=bytes(56))
    pkt = wire.Ipv4Packet(src_ip=addr.parse_ip("192.0.2.9"), dst_ip=addr.parse_ip(A_IP),
                          protocol=wire.PROTO_ICMP, payload=wire.encode(request))
    a.ipv4.inbound.send(("packet", pkt))
    assert wait_until(lambda: a.counters.get("icmp.drop.reply_unroutable") == 1)
    # the dealer that failed to reply still answers and routes the next ping
    assert a.icmp.ping(B_IP, count=1, interval=0.0).received == 1


def test_down_twice_raises():
    profile = link.ImpairmentProfile()
    a, b = stack.linked_stacks(profile, fast_config(A_IP, "02:00:00:00:00:01"),
                               fast_config(B_IP, "02:00:00:00:00:02"))
    a.down()
    b.down()
    with pytest.raises(errors.NotRunning):
        a.down()


def test_down_with_open_connections_and_sockets(rig):
    a, b = rig()
    listener = b.tcp.listen(8000)
    client = a.tcp.connect("10.0.0.2", 8000)
    server = listener.accept(timeout=2.0)
    client.send(b"mid-flight")
    assert server.recv(timeout=2.0) == b"mid-flight"
    a.udp.bind(8001)
    b.udp.bind(8002)
    # teardown happens in the fixture; it must not hang or leak
    a.down()
    b.down()
    assert a.tasks.census() == 0, a.tasks.names()
    assert b.tasks.census() == 0, b.tasks.names()


def test_down_ends_every_blocked_call(rig):
    """Closing the device reaches every queue an application can wait on."""
    a, b = rig()
    listener = b.tcp.listen(8010)
    client = a.tcp.connect(B_IP, 8010)
    server = listener.accept(timeout=2.0)
    sock = b.udp.bind(8011)
    raw = MessageQueue(4)
    b.ipv4.registry.bind(253, raw)  # RFC 3692's experimental protocol number
    outcomes = {}

    def block(name, call, *args):
        try:
            call(*args)
            outcomes[name] = "returned"
        except errors.NetstackError as e:
            outcomes[name] = type(e).__name__

    calls = {"accept": (listener.accept,), "recv": (server.recv,),
             "recv_from": (sock.recv_from,), "raw": (raw.recv, 5.0)}
    threads = [threading.Thread(target=block, args=(name, *call), daemon=True)
               for name, call in calls.items()]
    for t in threads:
        t.start()
    time.sleep(0.1)
    b.down()
    for t in threads:
        t.join(1.0)
    assert not any(t.is_alive() for t in threads), outcomes
    assert outcomes["raw"] == "Closed", outcomes
    assert "returned" not in outcomes.values(), outcomes
    client.close()


def test_emulated_device_required():
    with pytest.raises(errors.DeviceUnavailable):
        stack.Stack(fast_config(A_IP, "02:00:00:00:00:01"))


def test_running_flag_tracks_lifecycle():
    profile = link.ImpairmentProfile()
    a, b = stack.linked_stacks(profile, fast_config(A_IP, "02:00:00:00:00:01"),
                               fast_config(B_IP, "02:00:00:00:00:02"))
    assert a.running and b.running
    a.down()
    assert not a.running
    b.down()


def test_layers_keep_working_while_udp_socket_stalls(rig):
    """A reader that never drains its socket only hurts that socket."""
    a, b = rig(b_over={"queue_capacity": 8})
    stalled = b.udp.bind(8003)
    sender = a.udp.bind(0)
    send_paced(sender, b, stalled, [b"flood %d" % i for i in range(100)])
    assert wait_until(lambda: b.counters.get("udp.drop.full") > 0, timeout=3.0)
    assert b.counters.get("link.drop.overflow") == 0
    stats = a.ping("10.0.0.2", count=5, interval=0.0)
    assert stats.received == 5
    listener = b.tcp.listen(8004)
    conn = a.tcp.connect("10.0.0.2", 8004, timeout=3.0)
    serv = listener.accept(timeout=2.0)
    conn.send(b"still moving")
    assert serv.recv(timeout=2.0) == b"still moving"
    assert stalled.recv_from(timeout=1.0)  # its queue did keep some


def test_cpu_seconds_names_every_task_and_charges_the_ip_dealer(rig):
    a, b = rig()
    server = b.udp.bind(4010)
    client = a.udp.bind(0)
    payload = bytes(range(256)) * 32  # 8192 bytes: 6 fragments each way
    for _ in range(20):
        client.send_to(B_IP, 4010, payload)
        src_ip, src_port, got = server.recv_from(timeout=3.0)
        server.send_to(src_ip, src_port, got)
        assert client.recv_from(timeout=3.0)[2] == payload
    for s in (a, b):
        cpu = s.tasks.cpu_seconds()
        assert set(cpu) == set(s.tasks.names())
        assert cpu["ip-dealer"] > cpu["arp-dealer"], cpu
