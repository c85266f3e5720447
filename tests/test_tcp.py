"""Connection lifecycle, reliable transfer, and the state machine."""

import random
import threading
import time

import pytest

from conftest import ScriptedPeer, tcp_task_names, wait_until

from netstack import addr, errors, wire
from netstack.tcp import TcbState

A_IP = addr.parse_ip("10.0.0.1")
B_IP = addr.parse_ip("10.0.0.2")
A_MAC = addr.parse_mac("02:00:00:00:00:01")


def _serve_echo_total(listener, results, n_bytes):
    conn = listener.accept(timeout=10.0)
    results.append(conn.recv_exactly(n_bytes, timeout=30.0))
    conn.close()


def _spy_data_segments(stack_obj, record):
    """Wrap the device so outgoing TCP payload sizes land in record."""
    original = stack_obj.device.write_frame

    def wrapper(frame_bytes):
        try:
            eth = wire.decode("ethernet", frame_bytes)
            if eth.ethertype == wire.ETHERTYPE_IPV4:
                pkt = wire.decode("ipv4", eth.payload)
                if pkt.protocol == wire.PROTO_TCP and not pkt.is_fragment:
                    seg = wire.decode("tcp", pkt.payload)
                    if seg.payload:
                        record.append(len(seg.payload))
        except errors.WireError:
            pass
        original(frame_bytes)

    stack_obj.device.write_frame = wrapper


def test_handshake_and_small_exchange(rig):
    a, b = rig()
    listener = b.tcp.listen(7000)
    client = a.tcp.connect(B_IP, 7000)
    server = listener.accept(timeout=2.0)
    assert client.state is TcbState.ESTABLISHED
    assert server.state is TcbState.ESTABLISHED
    assert server.remote == (A_IP, client.local[1])
    client.send(b"knock knock")
    assert server.recv(timeout=2.0) == b"knock knock"
    server.send(b"who is there")
    assert client.recv(timeout=2.0) == b"who is there"


def test_payload_is_cut_at_mss(rig):
    a, b = rig()
    sizes = []
    _spy_data_segments(a, sizes)
    listener = b.tcp.listen(7001)
    results = []
    t = threading.Thread(target=_serve_echo_total, args=(listener, results, 4096))
    t.start()
    client = a.tcp.connect(B_IP, 7001)
    client.send(bytes(4096))
    t.join(timeout=5.0)
    assert results and len(results[0]) == 4096
    assert sizes[:3] == [1460, 1460, 1176]
    client.close()


def test_bulk_transfer_both_directions(rig):
    a, b = rig()
    payload_up = bytes(random.Random(21).randbytes(65536))
    payload_down = bytes(random.Random(22).randbytes(65536))
    listener = b.tcp.listen(7002)

    def serve():
        conn = listener.accept(timeout=5.0)
        got = conn.recv_exactly(len(payload_up), timeout=20.0)
        assert got == payload_up
        conn.send(payload_down)
        conn.close()

    t = threading.Thread(target=serve)
    t.start()
    client = a.tcp.connect(B_IP, 7002)
    client.send(payload_up)
    assert client.recv_exactly(len(payload_down), timeout=20.0) == payload_down
    t.join(timeout=10.0)
    client.close()


def test_single_dropped_segment_is_retransmitted(rig):
    a, b = rig()
    state = {"armed": True}
    original = a.device.write_frame

    def drop_one_data_frame(frame_bytes):
        if state["armed"]:
            try:
                eth = wire.decode("ethernet", frame_bytes)
                if eth.ethertype == wire.ETHERTYPE_IPV4:
                    pkt = wire.decode("ipv4", eth.payload)
                    if pkt.protocol == wire.PROTO_TCP:
                        seg = wire.decode("tcp", pkt.payload)
                        if seg.payload:
                            state["armed"] = False
                            return
            except errors.WireError:
                pass
        original(frame_bytes)

    a.device.write_frame = drop_one_data_frame
    listener = b.tcp.listen(7003)
    results = []
    t = threading.Thread(target=_serve_echo_total, args=(listener, results, 5000))
    t.start()
    client = a.tcp.connect(B_IP, 7003)
    payload = bytes(random.Random(23).randbytes(5000))
    client.send(payload)
    t.join(timeout=10.0)
    assert results == [payload]
    assert not state["armed"]
    assert a.counters.get("tcp.retransmit") >= 1
    client.close()


def test_transfer_survives_loss_and_reorder(rig):
    a, b = rig(loss=0.05, reorder=0.05, seed=17, delay=0.0)
    payload = bytes(random.Random(24).randbytes(200 * 1024))
    listener = b.tcp.listen(7004)
    results = []
    t = threading.Thread(target=_serve_echo_total,
                         args=(listener, results, len(payload)))
    t.start()
    client = a.tcp.connect(B_IP, 7004, timeout=15.0)
    client.send(payload, timeout=45.0)
    t.join(timeout=45.0)
    assert not t.is_alive(), "server side never finished the read"
    assert results == [payload]
    client.close()


def test_reorder_only_keeps_stream_in_order(rig):
    a, b = rig(reorder=0.3, seed=5)
    listener = b.tcp.listen(7005)
    results = []
    payload = bytes(random.Random(25).randbytes(100 * 1024))
    t = threading.Thread(target=_serve_echo_total,
                         args=(listener, results, len(payload)))
    t.start()
    client = a.tcp.connect(B_IP, 7005, timeout=10.0)
    client.send(payload, timeout=30.0)
    t.join(timeout=30.0)
    assert results == [payload]
    client.close()


def test_remote_close_reads_as_eof(rig):
    a, b = rig()
    listener = b.tcp.listen(7006)
    client = a.tcp.connect(B_IP, 7006)
    server = listener.accept(timeout=2.0)
    server.send(b"parting gift")
    server.close()
    assert client.recv(timeout=2.0) == b"parting gift"
    assert client.recv(timeout=2.0) == b""
    assert client.recv(timeout=2.0) == b""  # EOF is sticky
    assert wait_until(lambda: client.state is TcbState.CLOSE_WAIT)
    client.close()
    assert wait_until(lambda: client.state is TcbState.CLOSED, timeout=3.0)


def test_send_after_close_raises(rig):
    a, b = rig()
    listener = b.tcp.listen(7007)
    client = a.tcp.connect(B_IP, 7007)
    listener.accept(timeout=2.0)
    client.close()
    with pytest.raises(errors.ConnectionClosed):
        client.send(b"too late")


def test_double_close_is_harmless(rig):
    a, b = rig()
    listener = b.tcp.listen(7008)
    client = a.tcp.connect(B_IP, 7008)
    server = listener.accept(timeout=2.0)
    client.close()
    client.close()
    server.close()
    server.close()
    assert wait_until(lambda: a.tcp.connection_count() == 0, timeout=3.0)
    assert wait_until(lambda: b.tcp.connection_count() == 0, timeout=3.0)


def test_simultaneous_close_converges(rig):
    a, b = rig()
    listener = b.tcp.listen(7009)
    client = a.tcp.connect(B_IP, 7009)
    server = listener.accept(timeout=2.0)
    t = threading.Thread(target=server.close)
    t.start()
    client.close()
    t.join(timeout=2.0)
    assert wait_until(lambda: a.tcp.connection_count() == 0, timeout=3.0)
    assert wait_until(lambda: b.tcp.connection_count() == 0, timeout=3.0)
    assert client.state is TcbState.CLOSED
    assert server.state is TcbState.CLOSED


def test_connect_to_closed_port_is_refused(rig):
    a, _b = rig()
    with pytest.raises(errors.ConnectionRefused):
        a.tcp.connect(B_IP, 7999, timeout=3.0)
    assert a.tcp.connection_count() == 0


def test_connect_to_silent_host_times_out(rig):
    a, b = rig()
    b.tcp.inbound.close()  # peer's tcp dealer goes away; SYNs vanish
    with pytest.raises((errors.Timeout, errors.ConnectionReset)):
        a.tcp.connect(B_IP, 7998, timeout=1.0)
    assert wait_until(lambda: a.tcp.connection_count() == 0, timeout=3.0)


def test_backlog_full_drops_new_syns(rig):
    a, b = rig()
    listener = b.tcp.listen(7010, backlog=1)
    first = a.tcp.connect(B_IP, 7010)  # fills the accept queue
    with pytest.raises(errors.Timeout):
        a.tcp.connect(B_IP, 7010, timeout=0.7)
    assert b.counters.get("tcp.drop.backlog_full") >= 1
    queued = listener.accept(timeout=2.0)
    # room freed: the next attempt goes through
    second = a.tcp.connect(B_IP, 7010, timeout=3.0)
    for conn in (first, queued, second, listener.accept(timeout=2.0)):
        conn.close()


def test_listener_close_refuses_future_connects(rig):
    a, b = rig()
    listener = b.tcp.listen(7011)
    listener.close()
    with pytest.raises(errors.ConnectionRefused):
        a.tcp.connect(B_IP, 7011, timeout=3.0)


def test_duplicate_listen_rejected(rig):
    _a, b = rig()
    b.tcp.listen(7012)
    with pytest.raises(errors.AlreadyBound):
        b.tcp.listen(7012)


def test_recv_timeout_raises(rig):
    a, b = rig()
    listener = b.tcp.listen(7013)
    client = a.tcp.connect(B_IP, 7013)
    listener.accept(timeout=2.0)
    with pytest.raises(errors.Timeout):
        client.recv(timeout=0.15)


def test_connections_and_tasks_drain_after_use(rig):
    a, b = rig()
    listener = b.tcp.listen(7014)
    for _ in range(5):
        client = a.tcp.connect(B_IP, 7014)
        server = listener.accept(timeout=2.0)
        client.send(b"round trip")
        assert server.recv(timeout=2.0) == b"round trip"
        client.close()
        server.close()
    assert wait_until(lambda: a.tcp.connection_count() == 0, timeout=4.0)
    assert wait_until(lambda: b.tcp.connection_count() == 0, timeout=4.0)
    assert wait_until(lambda: a.tasks.census("tcp-conn") == 0, timeout=4.0)
    assert wait_until(lambda: b.tasks.census("tcp-conn") == 0, timeout=4.0)
    for st in (a, b):
        assert wait_until(lambda: tcp_task_names(st) == ["tcp-dealer"],
                          timeout=4.0), st.tasks.names()


def test_transfer_spawns_no_task_per_segment(rig):
    a, b = rig()
    spawned = {a: [], b: []}

    def record_spawns(st):
        original = st.tasks.spawn

        def recording_spawn(name, fn, *args):
            spawned[st].append(name)
            return original(name, fn, *args)

        st.tasks.spawn = recording_spawn

    record_spawns(a)
    record_spawns(b)
    payload = bytes(random.Random(26).randbytes(256 * 1024))
    listener = b.tcp.listen(7015)
    results = []
    t = threading.Thread(target=_serve_echo_total,
                         args=(listener, results, len(payload)))
    t.start()
    client = a.tcp.connect(B_IP, 7015)
    client.send(payload, timeout=20.0)
    t.join(timeout=20.0)
    client.close()
    assert not t.is_alive()
    assert results == [payload]
    # exactly one task per connection, on each side, for the whole transfer
    assert spawned[a] == [f"tcp-conn-{client.local[1]}"], spawned[a]
    assert spawned[b] == ["tcp-conn-7015"], spawned[b]


def test_passive_open_walks_canonical_states(solo):
    s, far_end = solo()
    peer = ScriptedPeer(far_end, ip=B_IP)
    listener = s.tcp.listen(7100)
    peer.announce(A_IP)
    peer.send_tcp(A_IP, A_MAC, src_port=5555, dst_port=7100,
                  seq=1000, ack=0, flag_syn=True, mss=1400)
    synack = peer.expect_tcp(lambda g: g.flag_syn and g.flag_ack)
    assert synack.ack == 1001
    peer.send_tcp(A_IP, A_MAC, src_port=5555, dst_port=7100,
                  seq=1001, ack=(synack.seq + 1) % 2**32, flag_ack=True)
    conn = listener.accept(timeout=2.0)
    assert conn.state is TcbState.ESTABLISHED
    # remote side closes first
    peer.send_tcp(A_IP, A_MAC, src_port=5555, dst_port=7100,
                  seq=1001, ack=(synack.seq + 1) % 2**32,
                  flag_fin=True, flag_ack=True)
    assert conn.recv(timeout=2.0) == b""
    assert conn.state is TcbState.CLOSE_WAIT
    conn.close()
    fin = peer.expect_tcp(lambda g: g.flag_fin)
    peer.send_tcp(A_IP, A_MAC, src_port=5555, dst_port=7100,
                  seq=1002, ack=(fin.seq + 1) % 2**32, flag_ack=True)
    assert wait_until(lambda: conn.state is TcbState.CLOSED)
    assert conn.tcb.snapshot_history() == [
        TcbState.LISTEN, TcbState.SYN_RCVD, TcbState.ESTABLISHED,
        TcbState.CLOSE_WAIT, TcbState.LAST_ACK, TcbState.CLOSED]
    assert wait_until(lambda: conn.tcb.ledger_size() == 0)


def test_active_open_walks_canonical_states(rig):
    a, b = rig()
    listener = b.tcp.listen(7101)
    client = a.tcp.connect(B_IP, 7101)
    server = listener.accept(timeout=2.0)
    client.close()   # active closer
    assert server.recv(timeout=2.0) == b""
    server.close()
    assert wait_until(lambda: client.state is TcbState.CLOSED, timeout=3.0)
    history = client.tcb.snapshot_history()
    assert history == [
        TcbState.CLOSED, TcbState.SYN_SENT, TcbState.ESTABLISHED,
        TcbState.FIN_WAIT_1, TcbState.FIN_WAIT_2, TcbState.TIME_WAIT,
        TcbState.CLOSED]


def test_incoming_rst_resets_established(solo):
    s, far_end = solo()
    peer = ScriptedPeer(far_end, ip=B_IP)
    listener = s.tcp.listen(7102)
    peer.announce(A_IP)
    peer.send_tcp(A_IP, A_MAC, src_port=6000, dst_port=7102,
                  seq=500, ack=0, flag_syn=True)
    synack = peer.expect_tcp(lambda g: g.flag_syn and g.flag_ack)
    peer.send_tcp(A_IP, A_MAC, src_port=6000, dst_port=7102,
                  seq=501, ack=(synack.seq + 1) % 2**32, flag_ack=True)
    conn = listener.accept(timeout=2.0)
    peer.send_tcp(A_IP, A_MAC, src_port=6000, dst_port=7102,
                  seq=501, ack=(synack.seq + 1) % 2**32, flag_rst=True,
                  flag_ack=True)
    with pytest.raises(errors.ConnectionReset):
        while True:
            if conn.recv(timeout=2.0) == b"":
                break
    assert wait_until(lambda: conn.state is TcbState.CLOSED)


def test_half_open_handshake_is_reaped(solo):
    s, far_end = solo(tcp_handshake_timeout_ms=400)
    peer = ScriptedPeer(far_end, ip=B_IP)
    s.tcp.listen(7103)
    peer.announce(A_IP)
    peer.send_tcp(A_IP, A_MAC, src_port=6001, dst_port=7103,
                  seq=900, ack=0, flag_syn=True)
    peer.expect_tcp(lambda g: g.flag_syn and g.flag_ack)
    # never complete the handshake
    assert wait_until(lambda: s.counters.get("tcp.reap.half_open") == 1,
                      timeout=3.0)
    assert wait_until(lambda: s.tcp.connection_count() == 0, timeout=3.0)


def _expect_retransmission_limit(solo, chatter: bool) -> None:
    """Data the peer never ACKs goes out 5 times at doubling gaps, then
    the stack resets. With chatter, the peer also sends an in-order byte
    every ~10 ms, so the connection task keeps waking for segments rather
    than for its timer."""
    s, far_end = solo(tcp_rto_ms=50)
    peer = ScriptedPeer(far_end, ip=B_IP)
    listener = s.tcp.listen(7104)
    peer.announce(A_IP)
    peer.send_tcp(A_IP, A_MAC, src_port=6003, dst_port=7104,
                  seq=700, ack=0, flag_syn=True)
    synack = peer.expect_tcp(lambda g: g.flag_syn and g.flag_ack)
    peer_ack = (synack.seq + 1) % 2**32
    peer.send_tcp(A_IP, A_MAC, src_port=6003, dst_port=7104,
                  seq=701, ack=peer_ack, flag_ack=True)
    conn = listener.accept(timeout=2.0)
    # with chatter the stack ACKs each byte; skip those pure ACKs
    data_or_rst = (lambda g: g.payload or g.flag_rst) if chatter else None
    stop = threading.Event()

    def send_chatter():
        seq = 701
        while not stop.wait(0.01):
            peer.send_tcp(A_IP, A_MAC, src_port=6003, dst_port=7104,
                          seq=seq, ack=peer_ack, flag_ack=True, payload=b"x")
            seq += 1

    chatter_thread = threading.Thread(target=send_chatter, daemon=True)
    if chatter:
        chatter_thread.start()
    try:
        conn.send(b"never acknowledged")
        arrivals = []
        for _ in range(5):
            seg = peer.expect_tcp(data_or_rst)  # never ACKed, so it returns
            assert seg.payload == b"never acknowledged"
            arrivals.append(time.monotonic())
        # no sixth copy: the limit resets
        assert peer.expect_tcp(data_or_rst).flag_rst
    finally:
        stop.set()
        if chatter:
            chatter_thread.join(timeout=2.0)
    assert not chatter_thread.is_alive()
    with pytest.raises(errors.ConnectionReset):
        while conn.recv(timeout=3.0):
            assert chatter  # only chatter bytes may come before the reset
    gaps = [later - earlier for earlier, later in zip(arrivals, arrivals[1:])]
    for i, gap in enumerate(gaps):
        nominal = 0.05 * 2 ** i  # the RTO doubles after each copy
        assert 0.7 * nominal <= gap <= nominal + 0.1, gaps
    assert s.counters.get("tcp.retransmit") == 4
    assert s.counters.get("tcp.reset.retransmit_limit") == 1
    assert wait_until(lambda: conn.tcb.ledger_size() == 0)
    assert wait_until(lambda: s.tasks.census("tcp-conn") == 0), s.tasks.names()


def test_retransmission_limit_resets_the_connection(solo):
    _expect_retransmission_limit(solo, chatter=False)


def test_retransmission_timer_fires_under_steady_inbound_traffic(solo):
    _expect_retransmission_limit(solo, chatter=True)


def _scripted_connection(solo, port: int):
    """A stack with a 100 ms RTO, accepted over a hand-driven peer.

    Returns the stack, the peer, the accepted connection and an ack(n)
    that makes the peer acknowledge the stack's bytes up to sequence n."""
    s, far_end = solo(tcp_rto_ms=100)
    peer = ScriptedPeer(far_end, ip=B_IP)
    listener = s.tcp.listen(port)
    peer.announce(A_IP)
    peer.send_tcp(A_IP, A_MAC, src_port=6004, dst_port=port,
                  seq=800, ack=0, flag_syn=True)
    synack = peer.expect_tcp(lambda g: g.flag_syn and g.flag_ack)

    def ack(n):
        peer.send_tcp(A_IP, A_MAC, src_port=6004, dst_port=port,
                      seq=801, ack=n % 2**32, flag_ack=True)

    ack(synack.seq + 1)
    return s, peer, listener.accept(timeout=2.0), ack


def _data(seg) -> bool:
    return bool(seg.payload)


def test_timeout_resends_only_the_oldest_segment(solo):
    s, peer, conn, ack = _scripted_connection(solo, 7105)
    mss = conn.tcb.mss
    conn.send(bytes(3 * mss))
    first, second, third = (peer.expect_tcp(_data) for _ in range(3))
    ack(first.seq + mss)
    copy = peer.expect_tcp(_data)
    assert copy.seq == second.seq
    ack(third.seq + mss)
    with pytest.raises((AssertionError, errors.Timeout)):  # no third copy
        peer.expect_tcp(_data, timeout=0.3)
    assert s.counters.get("tcp.retransmit") == 1
    assert wait_until(lambda: conn.tcb.ledger_size() == 0)


def test_partial_ack_resends_the_next_hole_at_once(solo):
    s, peer, conn, ack = _scripted_connection(solo, 7106)
    mss = conn.tcb.mss
    conn.send(bytes(5 * mss))
    segs = [peer.expect_tcp(_data) for _ in range(5)]
    ack(segs[0].seq + mss)  # the 2nd and 4th segments never arrived
    assert peer.expect_tcp(_data).seq == segs[1].seq  # the timeout's copy
    ack(segs[3].seq)  # the copy filled the first hole; the second remains
    assert peer.expect_tcp(_data, timeout=0.05).seq == segs[3].seq  # < RTO/2
    ack(segs[4].seq + mss)
    assert wait_until(lambda: conn.tcb.ledger_size() == 0)
    assert s.counters.get("tcp.retransmit") == 2


def test_stray_segment_gets_rst(solo):
    s, far_end = solo()
    peer = ScriptedPeer(far_end, ip=B_IP)
    peer.announce(A_IP)
    peer.send_tcp(A_IP, A_MAC, src_port=6002, dst_port=9999,
                  seq=100, ack=77, flag_ack=True, payload=b"who are you")
    rst = peer.expect_tcp(lambda g: g.flag_rst)
    assert rst.src_port == 9999 and rst.dst_port == 6002
