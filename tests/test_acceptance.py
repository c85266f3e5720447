"""End-to-end acceptance: one test per shipping requirement.

Each test states its tolerance inline and fails loudly if the property
does not hold at that tolerance. Run with -v for one line per item.
"""

import fcntl
import itertools
import os
import random
import socket
import struct
import threading
import time

import pytest

from conftest import ScriptedPeer, fast_config, tcp_task_names, wait_until

from netstack import addr, bench, errors, stack, wire
from netstack.csp import MessageQueue
from netstack.ipv4 import fragment_payload
from netstack.tcp import TcbState

from test_checksum import reference_checksum
from test_wire import _random_unit

A_IP = addr.parse_ip("10.0.0.1")
B_IP = addr.parse_ip("10.0.0.2")
A_MAC = addr.parse_mac("02:00:00:00:00:01")

LAYERS = ["ethernet", "arp", "ipv4", "icmp", "udp", "tcp"]
TEST_PROTO = 253


def test_criterion_01_codec_round_trip_and_noise_immunity():
    """10^4 fuzzed units per protocol survive decode(encode(u)) == u,
    and decode never raises anything but its own error type on 10^5
    random buffers. Budget: under one minute."""
    started = time.perf_counter()
    src, dst = A_IP, B_IP
    for layer in LAYERS:
        rng = random.Random(f"criterion_01:{layer}")
        for _ in range(10_000):
            unit = _random_unit(rng, layer)
            raw = wire.encode(unit, src_ip=src, dst_ip=dst)
            assert wire.decode(layer, raw, src_ip=src, dst_ip=dst) == unit
    noise = random.Random(0xD1CE)
    for i in range(100_000):
        data = noise.randbytes(noise.randrange(0, 120))
        try:
            wire.decode(LAYERS[i % len(LAYERS)], data, src_ip=src, dst_ip=dst)
        except errors.WireError:
            pass
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"codec sweep took {elapsed:.1f}s"


def test_criterion_02_checksum_matches_independent_oracle():
    """internet and transport checksums agree with a byte-at-a-time
    accumulate-and-fold oracle on 10^4 buffers, lengths 0-2000, both
    parities; zero mismatches tolerated."""
    rng = random.Random(0xACC2)
    parities = set()
    for i in range(10_000):
        length = rng.randrange(0, 2001)
        parities.add(length % 2)
        data = rng.randbytes(length)
        assert wire.internet_checksum(data) == reference_checksum(data)
        pseudo = bytes(A_IP) + bytes(B_IP) + b"\x00\x11" + struct.pack("!H", length)
        expect = reference_checksum(pseudo + data)
        got = wire.transport_checksum(A_IP, B_IP, 17, data)
        assert got == expect, f"transport checksum differs at length {length}"
    assert parities == {0, 1}


def test_criterion_03_fragmentation_identity_under_permutation(rig):
    """Every payload in {1, 8, 1480, 1481, 4000, 16384} at mtu 576 and
    1500 reassembles byte-exact under all arrival orders (exhaustive for
    up to 4 fragments, 50 random shuffles beyond). Budget: one minute."""
    started = time.perf_counter()
    a, _b = rig()
    q = MessageQueue(64)
    a.ipv4.registry.bind(TEST_PROTO, q)
    rng = random.Random(3003)
    ident = itertools.count(1)
    for mtu in (576, 1500):
        for size in (1, 8, 1480, 1481, 4000, 16384):
            payload = bytes(rng.randbytes(size))
            plan = fragment_payload(payload, mtu)
            if len(plan) <= 4:
                orders = list(itertools.permutations(range(len(plan))))
            else:
                orders = [rng.sample(range(len(plan)), len(plan))
                          for _ in range(50)]
            for order in orders:
                this_id = next(ident) & 0xFFFF
                for i in order:
                    offset_units, more, chunk = plan[i]
                    a.ipv4.inbound.send(("packet", wire.Ipv4Packet(
                        src_ip=B_IP, dst_ip=A_IP, protocol=TEST_PROTO,
                        payload=chunk, identification=this_id,
                        mf=more, fragment_offset=offset_units)))
                got = q.recv(timeout=5.0)
                assert got.payload == payload, \
                    f"mtu {mtu} size {size} order {order} corrupted"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"fragmentation sweep took {elapsed:.1f}s"


def test_criterion_04_incomplete_reassemblies_leave_nothing_behind(rig):
    """100 never-completed reassemblies vanish within the reassembly
    timeout plus one second, and the task census returns to its
    pre-injection baseline."""
    a, _b = rig()
    q = MessageQueue(8)
    a.ipv4.registry.bind(TEST_PROTO, q)
    baseline = a.tasks.census()
    for ident in range(100):
        chunk = bytes(600)
        a.ipv4.inbound.send(("packet", wire.Ipv4Packet(
            src_ip=B_IP, dst_ip=A_IP, protocol=TEST_PROTO, payload=chunk,
            identification=ident, mf=True, fragment_offset=0)))
    assert wait_until(lambda: a.ipv4.assembler_count() > 0, timeout=2.0)
    budget = a.config.reassembly_timeout_ms / 1000 + 1.0
    assert wait_until(lambda: a.ipv4.assembler_count() == 0, timeout=budget), \
        f"assembler map not empty after {budget}s"
    assert wait_until(lambda: a.tasks.census() == baseline, timeout=1.0), \
        f"task census {a.tasks.census()} never returned to {baseline}"
    with pytest.raises(errors.Timeout):
        q.recv(timeout=0.1)


def test_criterion_05_fifty_pings_lossless_and_fast(rig):
    """50 echo round trips over a lossless wire: zero loss, average RTT
    under 5 ms, whole run under 5 s."""
    a, _b = rig()
    started = time.perf_counter()
    stats = a.ping(B_IP, count=50, interval=0.0, timeout=2.0)
    elapsed = time.perf_counter() - started
    assert stats.sent == 50 and stats.received == 50
    assert stats.loss == 0.0
    assert stats.avg_ms < 5.0, f"avg rtt {stats.avg_ms:.3f} ms"
    assert elapsed < 5.0, f"run took {elapsed:.1f}s"


def test_criterion_06_latency_scales_gently_to_1000_pingers():
    """Average RTT at 1000 concurrent pingers stays within 10x the
    single-pinger average, with no super-linear blow-up at any step.
    Budget: five minutes."""
    started = time.perf_counter()
    records = bench.bench_latency([1, 10, 100, 1000], pings_each=10,
                                  interval=0.5, delay=0.0005)
    elapsed = time.perf_counter() - started
    assert len(records) == 4
    for r in records:
        assert r.loss == 0.0, \
            f"{r.concurrent_pingers} pingers lost replies; drops: {r.drops}"
    base = records[0].avg_ms
    top = records[-1].avg_ms
    assert top <= 10.0 * base, \
        f"avg rtt went {base:.3f} -> {top:.3f} ms (over 10x)"
    for prev, cur in zip(records, records[1:]):
        assert cur.avg_ms <= 10.0 * prev.avg_ms, \
            (f"{prev.concurrent_pingers} -> {cur.concurrent_pingers} pingers "
             f"blew up {prev.avg_ms:.3f} -> {cur.avg_ms:.3f} ms")
    assert elapsed < 300.0, f"latency sweep took {elapsed:.1f}s"


def _transfer(a, b, payload, port) -> float:
    """Client a streams payload to a fresh server on b; returns seconds."""
    listener = b.tcp.listen(port)
    results = []

    def serve():
        conn = listener.accept(timeout=30.0)
        results.append(conn.recv_exactly(len(payload), timeout=55.0))
        conn.close()

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    started = time.perf_counter()
    client = a.tcp.connect(B_IP, port, timeout=15.0)
    client.send(payload, timeout=55.0)
    t.join(timeout=58.0)
    elapsed = time.perf_counter() - started
    assert not t.is_alive(), "server read never completed"
    assert results[0] == payload, "received bytes differ from sent bytes"
    client.close()
    listener.close()
    return elapsed


def test_criterion_07_tcp_byte_exact_clean_and_dirty(rig):
    """4096-byte and 1 MiB transfers are byte-exact on a clean wire;
    with 5% loss plus 5% reorder, 1 MiB completes byte-exact within 60 s
    for each of 20 wire seeds."""
    a, b = rig()
    rng = random.Random(700)
    _transfer(a, b, bytes(rng.randbytes(4096)), 7300)
    _transfer(a, b, bytes(rng.randbytes(1 << 20)), 7301)
    over = {"tcp_rto_ms": 100}
    for seed in range(20):
        dirty_a, dirty_b = rig(loss=0.05, reorder=0.05, seed=1000 + seed,
                               a_over=dict(over), b_over=dict(over))
        payload = bytes(random.Random(800 + seed).randbytes(1 << 20))
        elapsed = _transfer(dirty_a, dirty_b, payload, 7302)
        dirty_a.down()
        dirty_b.down()
        assert elapsed < 60.0, f"seed {seed} took {elapsed:.1f}s"


LEGAL_EDGES = frozenset({
    (TcbState.CLOSED, TcbState.SYN_SENT),
    (TcbState.LISTEN, TcbState.SYN_RCVD),
    (TcbState.SYN_SENT, TcbState.ESTABLISHED),
    (TcbState.SYN_SENT, TcbState.CLOSED),
    (TcbState.SYN_RCVD, TcbState.ESTABLISHED),
    (TcbState.SYN_RCVD, TcbState.CLOSED),
    (TcbState.ESTABLISHED, TcbState.FIN_WAIT_1),
    (TcbState.ESTABLISHED, TcbState.CLOSE_WAIT),
    (TcbState.ESTABLISHED, TcbState.CLOSED),
    (TcbState.FIN_WAIT_1, TcbState.FIN_WAIT_2),
    (TcbState.FIN_WAIT_1, TcbState.TIME_WAIT),
    (TcbState.FIN_WAIT_1, TcbState.CLOSED),
    (TcbState.FIN_WAIT_2, TcbState.TIME_WAIT),
    (TcbState.FIN_WAIT_2, TcbState.CLOSED),
    (TcbState.CLOSE_WAIT, TcbState.LAST_ACK),
    (TcbState.CLOSE_WAIT, TcbState.CLOSED),
    (TcbState.LAST_ACK, TcbState.CLOSED),
    (TcbState.TIME_WAIT, TcbState.CLOSED),
})


def _assert_legal(history):
    for pair in zip(history, history[1:]):
        assert pair in LEGAL_EDGES, f"illegal transition {pair} in {history}"


def test_criterion_08_state_machine_audit(solo, rig):
    """Scripted traces walk all ten connection states along legal edges
    only; afterwards no per-connection tasks or ledger entries remain."""
    histories = []
    stacks = []

    # passive open, remote closes first
    s, far = solo()
    stacks.append(s)
    peer = ScriptedPeer(far, ip=B_IP)
    listener = s.tcp.listen(7400)
    peer.announce(A_IP)
    peer.send_tcp(A_IP, A_MAC, src_port=5001, dst_port=7400,
                  seq=100, ack=0, flag_syn=True, mss=1460)
    synack = peer.expect_tcp(lambda g: g.flag_syn and g.flag_ack)
    peer.send_tcp(A_IP, A_MAC, src_port=5001, dst_port=7400,
                  seq=101, ack=(synack.seq + 1) % 2**32, flag_ack=True)
    conn = listener.accept(timeout=2.0)
    peer.send_tcp(A_IP, A_MAC, src_port=5001, dst_port=7400,
                  seq=101, ack=(synack.seq + 1) % 2**32,
                  flag_fin=True, flag_ack=True)
    assert conn.recv(timeout=2.0) == b""
    conn.close()
    fin = peer.expect_tcp(lambda g: g.flag_fin)
    peer.send_tcp(A_IP, A_MAC, src_port=5001, dst_port=7400,
                  seq=102, ack=(fin.seq + 1) % 2**32, flag_ack=True)
    assert wait_until(lambda: conn.state is TcbState.CLOSED)
    assert conn.tcb.snapshot_history() == [
        TcbState.LISTEN, TcbState.SYN_RCVD, TcbState.ESTABLISHED,
        TcbState.CLOSE_WAIT, TcbState.LAST_ACK, TcbState.CLOSED]
    histories.append((conn.tcb.snapshot_history(), conn.tcb))

    # active open, we close first, orderly FIN/ACK exchange
    a, b = rig()
    stacks.extend([a, b])
    lst = b.tcp.listen(7401)
    client = a.tcp.connect(B_IP, 7401)
    server = lst.accept(timeout=2.0)
    client.close()
    assert server.recv(timeout=2.0) == b""
    server.close()
    assert wait_until(lambda: client.state is TcbState.CLOSED, timeout=3.0)
    assert client.tcb.snapshot_history() == [
        TcbState.CLOSED, TcbState.SYN_SENT, TcbState.ESTABLISHED,
        TcbState.FIN_WAIT_1, TcbState.FIN_WAIT_2, TcbState.TIME_WAIT,
        TcbState.CLOSED]
    assert wait_until(lambda: server.state is TcbState.CLOSED, timeout=3.0)
    histories.append((client.tcb.snapshot_history(), client.tcb))
    histories.append((server.tcb.snapshot_history(), server.tcb))

    # simultaneous close: our FIN crosses the peer's FIN on the wire
    s2, far2 = solo()
    stacks.append(s2)
    peer2 = ScriptedPeer(far2, ip=B_IP)
    peer2.announce(A_IP)
    box = {}
    t = threading.Thread(
        target=lambda: box.update(conn=s2.tcp.connect(B_IP, 7402, timeout=5.0)))
    t.start()
    syn = peer2.expect_tcp(lambda g: g.flag_syn and not g.flag_ack)
    peer2.send_tcp(A_IP, A_MAC, src_port=7402, dst_port=syn.src_port,
                   seq=9000, ack=(syn.seq + 1) % 2**32,
                   flag_syn=True, flag_ack=True, mss=1460)
    peer2.expect_tcp(lambda g: g.flag_ack and not g.flag_syn)
    t.join(timeout=3.0)
    sim = box["conn"]
    sim.close()
    our_fin = peer2.expect_tcp(lambda g: g.flag_fin)
    # FIN that does not acknowledge ours: both directions closing at once
    peer2.send_tcp(A_IP, A_MAC, src_port=7402, dst_port=syn.src_port,
                   seq=9001, ack=our_fin.seq, flag_fin=True, flag_ack=True)
    peer2.expect_tcp(lambda g: g.ack == 9002)
    peer2.send_tcp(A_IP, A_MAC, src_port=7402, dst_port=syn.src_port,
                   seq=9002, ack=(our_fin.seq + 1) % 2**32, flag_ack=True)
    assert wait_until(lambda: sim.state is TcbState.CLOSED, timeout=3.0)
    assert sim.tcb.snapshot_history() == [
        TcbState.CLOSED, TcbState.SYN_SENT, TcbState.ESTABLISHED,
        TcbState.FIN_WAIT_1, TcbState.TIME_WAIT, TcbState.CLOSED]
    histories.append((sim.tcb.snapshot_history(), sim.tcb))

    # refused: RST answers our SYN
    s3, far3 = solo()
    stacks.append(s3)
    peer3 = ScriptedPeer(far3, ip=B_IP)
    peer3.announce(A_IP)
    failure = {}

    def refused_connect():
        try:
            s3.tcp.connect(B_IP, 7403, timeout=5.0)
        except errors.NetstackError as exc:
            failure["error"] = exc

    t3 = threading.Thread(target=refused_connect)
    t3.start()
    syn3 = peer3.expect_tcp(lambda g: g.flag_syn and not g.flag_ack)
    [pending] = s3.tcp.connections()
    peer3.send_tcp(A_IP, A_MAC, src_port=7403, dst_port=syn3.src_port,
                   seq=0, ack=(syn3.seq + 1) % 2**32,
                   flag_rst=True, flag_ack=True)
    t3.join(timeout=3.0)
    assert isinstance(failure.get("error"), errors.ConnectionRefused)
    assert pending.snapshot_history() == [
        TcbState.CLOSED, TcbState.SYN_SENT, TcbState.CLOSED]
    histories.append((pending.snapshot_history(), pending))

    # reset while established
    s4, far4 = solo()
    stacks.append(s4)
    peer4 = ScriptedPeer(far4, ip=B_IP)
    lst4 = s4.tcp.listen(7404)
    peer4.announce(A_IP)
    peer4.send_tcp(A_IP, A_MAC, src_port=5004, dst_port=7404,
                   seq=300, ack=0, flag_syn=True)
    synack4 = peer4.expect_tcp(lambda g: g.flag_syn and g.flag_ack)
    peer4.send_tcp(A_IP, A_MAC, src_port=5004, dst_port=7404,
                   seq=301, ack=(synack4.seq + 1) % 2**32, flag_ack=True)
    conn4 = lst4.accept(timeout=2.0)
    peer4.send_tcp(A_IP, A_MAC, src_port=5004, dst_port=7404,
                   seq=301, ack=(synack4.seq + 1) % 2**32,
                   flag_rst=True, flag_ack=True)
    assert wait_until(lambda: conn4.state is TcbState.CLOSED)
    assert conn4.tcb.snapshot_history() == [
        TcbState.LISTEN, TcbState.SYN_RCVD, TcbState.ESTABLISHED,
        TcbState.CLOSED]
    histories.append((conn4.tcb.snapshot_history(), conn4.tcb))

    seen = {state for history, _ in histories for state in history}
    assert seen == set(TcbState), f"states never driven: {set(TcbState) - seen}"
    for history, tcb in histories:
        _assert_legal(history)
        assert wait_until(lambda: tcb.ledger_size() == 0), \
            f"ledger still holds entries after close: {history}"
    for st in stacks:
        assert wait_until(lambda: st.tcp.connection_count() == 0, timeout=3.0)
        assert wait_until(lambda: st.tasks.census("tcp-conn") == 0,
                          timeout=3.0), st.tasks.names()
        assert wait_until(lambda: tcp_task_names(st) == ["tcp-dealer"],
                          timeout=3.0), st.tasks.names()


def test_criterion_09_throughput_scales_with_clients():
    """Aggregate TCP throughput at 100 clients reaches at least 5x the
    single-client figure and never regresses more than 20% at any step
    of {1, 10, 50, 100}. Budget: five minutes."""
    started = time.perf_counter()
    [small] = bench.bench_throughput([1], bytes_per_client=4096)
    assert small.bytes_per_client == 4096
    recomputed = small.clients * small.bytes_per_client * 8 / small.wall_time_s / 1e6
    assert small.throughput_mbit_s == pytest.approx(recomputed)
    records = bench.bench_throughput([1, 10, 50, 100],
                                     bytes_per_client=262144)
    elapsed = time.perf_counter() - started
    base = records[0].throughput_mbit_s
    top = records[-1].throughput_mbit_s
    assert top >= 5.0 * base, \
        (f"throughput went {base:.2f} -> {top:.2f} Mbit/s (under 5x); "
         f"counters {records[0].counters} -> {records[-1].counters}")
    for prev, cur in zip(records, records[1:]):
        assert cur.throughput_mbit_s >= 0.8 * prev.throughput_mbit_s, \
            (f"{prev.clients} -> {cur.clients} clients regressed "
             f"{prev.throughput_mbit_s:.2f} -> {cur.throughput_mbit_s:.2f}; "
             f"counters {prev.counters} -> {cur.counters}")
    assert elapsed < 300.0, f"throughput sweep took {elapsed:.1f}s"


def test_criterion_10_stalled_udp_reader_does_not_drag_ping(rig):
    """With one UDP socket left unread under continuous datagram load
    for 10 s, concurrent ping RTT stays under 2x its unloaded average."""
    a, b = rig(delay=0.001)
    baseline = a.ping(B_IP, count=10, interval=0.02, timeout=2.0)
    assert baseline.received == 10
    b.udp.bind(9001)  # bound but never read: the stalled reader
    loader_sock = a.udp.bind(0)
    stop = threading.Event()

    def loader():
        chunk = bytes(1024)
        while not stop.is_set():
            for _ in range(15):
                loader_sock.send_to(B_IP, 9001, chunk)
            time.sleep(0.01)  # ~1500 datagrams/s, continuously

    t = threading.Thread(target=loader, daemon=True)
    t.start()
    try:
        loaded = a.ping(B_IP, count=10, interval=1.0, timeout=2.0)
    finally:
        stop.set()
        t.join(timeout=2.0)
    assert loaded.received == 10, "pings lost under load"
    assert b.counters.get("udp.drop.full") > 0, "load never filled the socket"
    assert loaded.avg_ms < 2.0 * baseline.avg_ms, \
        f"rtt {baseline.avg_ms:.3f} -> {loaded.avg_ms:.3f} ms under load"


SIOCSIFADDR = 0x8916
SIOCSIFNETMASK = 0x891C
SIOCGIFFLAGS = 0x8913
SIOCSIFFLAGS = 0x8914
IFF_UP = 0x1
IFF_RUNNING = 0x40


def _host_configure(ifname: str, ip_text: str, mask_text: str) -> None:
    name = ifname.encode()
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as ctl:
        for code, value in ((SIOCSIFADDR, ip_text), (SIOCSIFNETMASK, mask_text)):
            # sockaddr_in: family is host order, port network order (zero here)
            sockaddr = struct.pack("=H2s4s8s", socket.AF_INET, b"\x00\x00",
                                   socket.inet_aton(value), b"\x00" * 8)
            fcntl.ioctl(ctl, code, struct.pack("16s16s", name, sockaddr))
        req = struct.pack("16sH14s", name, 0, b"\x00" * 14)
        got = fcntl.ioctl(ctl, SIOCGIFFLAGS, req)
        flags = struct.unpack_from("H", got, 16)[0] | IFF_UP | IFF_RUNNING
        fcntl.ioctl(ctl, SIOCSIFFLAGS,
                    struct.pack("16sH14s", name, flags, b"\x00" * 14))


def test_criterion_11_tap_answers_host_ping():
    """On a privileged host, the stack on a TAP device answers 50 native
    pings from the kernel side with zero loss. Skips unprivileged."""
    if os.geteuid() != 0:
        pytest.skip("TAP setup needs root")
    config = fast_config("192.0.2.2", "02:aa:00:00:00:02",
                         device="tap-acc0", netmask="255.255.255.0")
    try:
        s = stack.Stack(config).up()
    except (errors.DeviceUnavailable, OSError, PermissionError) as exc:
        pytest.skip(f"no usable TAP device: {exc}")
    try:
        _host_configure("tap-acc0", "192.0.2.1", "255.255.255.0")
        try:
            raw = socket.socket(socket.AF_INET, socket.SOCK_RAW,
                                socket.IPPROTO_ICMP)
        except (PermissionError, OSError) as exc:
            pytest.skip(f"raw ICMP socket unavailable: {exc}")
        with raw:
            raw.settimeout(1.0)
            ident = os.getpid() & 0xFFFF
            received = 0
            for seq in range(50):
                request = wire.encode(wire.IcmpEcho(
                    icmp_type=wire.ICMP_ECHO_REQUEST, identifier=ident,
                    sequence=seq, data=bytes(56)))
                raw.sendto(request, ("192.0.2.2", 0))
                deadline = time.monotonic() + 1.0
                while time.monotonic() < deadline:
                    try:
                        data, _peer = raw.recvfrom(2000)
                    except socket.timeout:
                        break
                    ihl = (data[0] & 0x0F) * 4
                    try:
                        echo = wire.decode("icmp", data[ihl:])
                    except errors.WireError:
                        continue
                    if (echo.icmp_type == wire.ICMP_ECHO_REPLY
                            and echo.identifier == ident
                            and echo.sequence == seq):
                        received += 1
                        break
            assert received == 50, f"host got {received}/50 replies"
    finally:
        s.down()
