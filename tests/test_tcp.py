"""Connection lifecycle, reliable transfer, and the state machine."""

import random
import sys
import threading
import time

import pytest

from conftest import ScriptedPeer, peer_segment, stub_tcb, tcp_task_names, wait_until

from netstack import addr, errors, wire
from netstack.tcp import TcbState, seq_add, seq_le

from test_acceptance import LEGAL_EDGES

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
                if pkt.protocol == wire.PROTO_TCP and not (pkt.mf or pkt.fragment_offset):
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


def _open_to_a_peer(solo, passive: bool, mss):
    """A connection whose scripted peer's SYN or SYN-ACK carries mss as its option."""
    s, far_end = solo()
    peer = ScriptedPeer(far_end, ip=B_IP)
    peer.announce(A_IP)
    if passive:
        listener = s.tcp.listen(7020)
        peer.send_tcp(A_IP, A_MAC, src_port=6010, dst_port=7020,
                      seq=500, ack=0, flag_syn=True, mss=mss)
        synack = peer.expect_tcp(lambda g: g.flag_syn and g.flag_ack)
        peer.send_tcp(A_IP, A_MAC, src_port=6010, dst_port=7020,
                      seq=501, ack=(synack.seq + 1) % 2**32, flag_ack=True)
        return peer, synack, listener.accept(timeout=2.0)
    opened = []
    opener = threading.Thread(target=lambda: opened.append(s.tcp.connect(B_IP, 7021)))
    opener.start()
    syn = peer.expect_tcp(lambda g: g.flag_syn)
    peer.send_tcp(A_IP, A_MAC, src_port=7021, dst_port=syn.src_port, seq=500,
                  ack=(syn.seq + 1) % 2**32, flag_syn=True, flag_ack=True, mss=mss)
    opener.join(3.0)
    return peer, syn, opened[0]


# a SYN without the option stands for RFC 9293's default MSS of 536
@pytest.mark.parametrize("passive, mss", [(True, 536), (False, 536), (True, None), (False, None)],
                         ids=["passive", "active", "passive-no-option", "active-no-option"])
def test_segments_are_cut_at_the_peers_mss(solo, passive, mss):
    peer, our_syn, conn = _open_to_a_peer(solo, passive, mss)
    assert our_syn.mss == 1460  # our option still offers what we can take
    conn.send(bytes(2000))
    sizes = [len(peer.expect_tcp(_data).payload) for _ in range(4)]
    assert sizes == [536, 536, 536, 392]


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


def _scripted_connection(solo, port: int, **overrides):
    """A stack with a 100 ms RTO, accepted over a hand-driven peer.

    The peer's first data byte is sequence 801. Returns the stack, the
    peer, the accepted connection and an ack(n) that makes the peer
    acknowledge the stack's bytes up to sequence n."""
    s, far_end = solo(tcp_rto_ms=100, **overrides)
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


def test_bulk_receiver_sends_far_fewer_pure_acks_than_segments(rig):
    a, b = rig()
    payload = bytes(random.Random(27).randbytes(1024 * 1024))
    listener = b.tcp.listen(7016)
    results = []
    t = threading.Thread(target=_serve_echo_total,
                         args=(listener, results, len(payload)))
    t.start()
    client = a.tcp.connect(B_IP, 7016)
    client.send(payload, timeout=30.0)
    t.join(timeout=30.0)
    assert results == [payload]
    data_segments = -(-len(payload) // client.tcb.mss)  # 719
    assert 0 < b.counters.get("tcp.tx.pure_ack") <= data_segments // 2
    client.close()


# The ACK rule, one turn at a time: with the TCB's lock held, the connection
# task is parked, so everything put in its inbox is handled in one turn.

def _from_peer(conn, seq: int, payload: bytes = b"", fin: bool = False):
    tcb = conn.tcb
    return wire.TcpSegment(src_port=tcb.remote[1], dst_port=tcb.local[1],
                           seq=seq, ack=tcb.snd_nxt, flag_ack=True,
                           flag_fin=fin, payload=payload)


def _one_turn(conn, segments, send: bytes = b"") -> None:
    tcb = conn.tcb
    with tcb._lock:
        tcb._inbox.extend(segments)
        tcb.send_buf.extend(send)
        tcb._work.notify()


def _all_sent(peer, quiet: float = 0.3) -> list:
    """Every segment the stack sends until it stays quiet for `quiet` s."""
    sent = []
    while True:
        try:
            sent.append(peer.expect_tcp(timeout=quiet))
        except (AssertionError, errors.Timeout):
            return sent


def test_in_order_segments_of_one_turn_get_one_cumulative_ack(solo):
    s, peer, conn, _ack = _scripted_connection(solo, 7107)
    _one_turn(conn, [_from_peer(conn, 801 + 100 * i, bytes(100)) for i in range(4)])
    [only] = _all_sent(peer)
    assert only.ack == 1201 and not only.payload
    assert s.counters.get("tcp.tx.pure_ack") == 1
    assert conn.recv_exactly(400, timeout=2.0) == bytes(400)


def test_out_of_order_segments_and_the_hole_filler_are_acked_at_once(solo):
    _s, peer, conn, _ack = _scripted_connection(solo, 7108)
    _one_turn(conn, [_from_peer(conn, seq, bytes(100)) for seq in (901, 1001, 1101)])
    assert [seg.ack for seg in _all_sent(peer)] == [801, 801, 801]
    # the filler is ACKed before the turn's in-order segment after it
    _one_turn(conn, [_from_peer(conn, 801, bytes(100)),
                     _from_peer(conn, 1201, bytes(100))])
    assert [seg.ack for seg in _all_sent(peer)] == [1201, 1301]


@pytest.mark.parametrize("data", [b"", bytes(100)], ids=["bare", "with_data"])
def test_fin_is_acked(solo, data):
    _s, peer, conn, _ack = _scripted_connection(solo, 7109)
    _one_turn(conn, [_from_peer(conn, 801, data, fin=True)])
    [only] = _all_sent(peer)
    assert only.ack == 801 + len(data) + 1  # the data and the FIN
    assert conn.state is TcbState.CLOSE_WAIT


def test_turn_that_cuts_data_sends_no_pure_ack(solo):
    s, peer, conn, ack = _scripted_connection(solo, 7110)
    _one_turn(conn, [_from_peer(conn, 801, bytes(100))], send=b"reply")
    reply = peer.expect_tcp()
    assert reply.payload == b"reply" and reply.ack == 901
    ack(reply.seq + len(reply.payload))
    # nothing else, bar a copy the 100 ms RTO may resend before that ACK lands
    assert all(seg.payload == b"reply" for seg in _all_sent(peer))
    assert s.counters.get("tcp.tx.pure_ack") == 0


def test_retransmitted_fin_restarts_time_wait(solo):
    _s, peer, conn, ack = _scripted_connection(solo, 7111, tcp_time_wait_ms=1000)
    conn.close()
    fin = peer.expect_tcp(lambda g: g.flag_fin)

    def send_fin():
        peer.send_tcp(A_IP, A_MAC, src_port=6004, dst_port=7111, seq=801,
                      ack=(fin.seq + 1) % 2**32, flag_fin=True, flag_ack=True)

    send_fin()
    assert peer.expect_tcp().ack == 802
    entered = time.monotonic()  # TIME_WAIT began before this ACK left
    assert conn.state is TcbState.TIME_WAIT
    time.sleep(0.6)
    send_fin()  # as if our ACK were lost
    assert peer.expect_tcp().ack == 802
    time.sleep(max(0.0, entered + 1.2 - time.monotonic()))
    assert conn.state is TcbState.TIME_WAIT  # past the first 1 s deadline
    assert wait_until(lambda: conn.state is TcbState.CLOSED, timeout=3.0)


def test_listener_close_resets_connections_never_accepted(rig):
    a, b = rig()
    listener = b.tcp.listen(7017)
    client = a.tcp.connect(B_IP, 7017)
    assert wait_until(lambda: len(listener.accept_q) == 1)
    listener.close()
    assert wait_until(lambda: b.tcp.connection_count() == 0, timeout=3.0)
    assert wait_until(lambda: b.tasks.census("tcp-conn") == 0, timeout=3.0)
    b.tcp.listen(7017)  # the port is free again
    with pytest.raises(errors.ConnectionReset):  # close() sent an RST
        client.recv(timeout=1.0)
    assert wait_until(lambda: a.tcp.connection_count() == 0, timeout=3.0)


def test_listener_close_resets_a_half_open_child(solo):
    s, far_end = solo(tcp_handshake_timeout_ms=10000)
    peer = ScriptedPeer(far_end, ip=B_IP)
    listener = s.tcp.listen(7112)
    peer.announce(A_IP)
    their_next = peer.handshake(A_IP, A_MAC, 6005, 7112, seq=1000, complete=False)
    listener.close()
    rst = peer.expect_tcp(lambda g: g.flag_rst)  # ABORT from SYN_RCVD
    assert rst.seq == their_next and rst.ack == 1001
    assert wait_until(lambda: s.tcp.connection_count() == 0)
    assert wait_until(lambda: s.tasks.census("tcp-conn") == 0)
    peer.send_tcp(A_IP, A_MAC, src_port=6005, dst_port=7112,
                  seq=1001, ack=their_next, flag_ack=True)
    rst = peer.expect_tcp(lambda g: g.flag_rst)  # no connection any more
    assert rst.seq == their_next
    assert s.tcp.connection_count() == 0
    assert s.counters.get("tcp.reap.half_open") == 0


def test_listener_close_leaves_accepted_connections_alone(rig):
    a, b = rig()
    listener = b.tcp.listen(7018)
    client = a.tcp.connect(B_IP, 7018)
    server = listener.accept(timeout=2.0)
    listener.close()
    client.send(b"still open?")
    assert server.recv(timeout=2.0) == b"still open?"
    server.send(b"yes")
    assert client.recv(timeout=2.0) == b"yes"
    assert server.state is TcbState.ESTABLISHED
    assert b.tcp.connection_count() == 1


def test_rst_outside_the_receive_window_is_dropped(solo):
    s, far_end = solo()
    peer = ScriptedPeer(far_end, ip=B_IP)
    listener = s.tcp.listen(7113)
    peer.announce(A_IP)
    their_next = peer.handshake(A_IP, A_MAC, 6006, 7113, seq=2000)
    conn = listener.accept(timeout=2.0)
    for seq in (2001 + 1_000_000, 2001 + 65535, 2000):  # far, just past, just before
        peer.send_tcp(A_IP, A_MAC, src_port=6006, dst_port=7113,
                      seq=seq, ack=their_next, flag_rst=True, flag_ack=True)
    assert wait_until(lambda: s.counters.get("tcp.drop.rst_out_of_window") == 3)
    assert conn.state is TcbState.ESTABLISHED
    conn.send(b"still here")
    assert peer.expect_tcp(_data).payload == b"still here"
    # inside the window, if not at rcv_nxt itself, an RST still resets
    peer.send_tcp(A_IP, A_MAC, src_port=6006, dst_port=7113,
                  seq=2001 + 65534, ack=their_next, flag_rst=True, flag_ack=True)
    with pytest.raises(errors.ConnectionReset):
        conn.recv(timeout=2.0)
    assert wait_until(lambda: s.tcp.connection_count() == 0)


def test_out_of_range_ports_are_refused_before_registering(rig):
    a, b = rig()
    with pytest.raises(errors.ConfigError):
        b.tcp.listen(70000)
    with pytest.raises(errors.ConfigError):
        a.tcp.connect(B_IP, 70000, timeout=1.0)
    assert a.tcp.connection_count() == 0
    assert a.tasks.census("tcp-conn") == 0


def test_listener_close_racing_handshakes_leaves_no_child(rig):
    """Handshakes finish while the listener closes; whichever side wins,
    no child outlives the close."""
    a, b = rig()
    listener = b.tcp.listen(7019, backlog=4)

    def connect():
        try:
            a.tcp.connect(B_IP, 7019, timeout=3.0)
        except errors.NetstackError:
            pass  # refused once the listener is gone, or timed out

    threads = [threading.Thread(target=connect) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        time.sleep(0.02)
        listener.close()
        for t in threads:
            t.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wait_until(lambda: b.tcp.connection_count() == 0, timeout=5.0)
    assert wait_until(lambda: b.tasks.census("tcp-conn") == 0, timeout=5.0)
    b.tcp.listen(7019)


def test_handshake_completing_as_the_listener_closes_is_reset(solo):
    s, far_end = solo(tcp_handshake_timeout_ms=10000)
    peer = ScriptedPeer(far_end, ip=B_IP)
    listener = s.tcp.listen(7114)
    peer.announce(A_IP)
    their_next = peer.handshake(A_IP, A_MAC, 6007, 7114, seq=3000, complete=False)
    [child] = s.tcp.connections()
    closer = threading.Thread(target=listener.close)
    out = []
    with child._lock:  # close() marks the listener closed, then waits for this
        closer.start()
        assert wait_until(lambda: listener.accept_q._closed)
        # the ACK's turn runs before close() can reset the child
        child._handle(wire.TcpSegment(src_port=6007, dst_port=7114, seq=3001,
                                      ack=their_next, flag_ack=True),
                      time.monotonic(), out)
    closer.join(timeout=2.0)
    assert not closer.is_alive()
    [rst] = [wire.decode("tcp", raw) for raw in out]
    assert rst.flag_rst and rst.seq == their_next
    assert child.snapshot_history()[-1] is TcbState.CLOSED
    assert wait_until(lambda: s.tcp.connection_count() == 0)


def test_closing_a_listener_twice_leaves_its_successor_listening(rig):
    a, b = rig()
    old = b.tcp.listen(7020)
    old.close()
    new = b.tcp.listen(7020)
    old.close()
    a.tcp.connect(B_IP, 7020, timeout=3.0)
    assert new.accept(timeout=2.0).state is TcbState.ESTABLISHED


def test_segment_for_a_closed_tcb_is_answered_like_a_missing_one(solo):
    s, peer, conn, _ack = _scripted_connection(solo, 7115)
    tcb = conn.tcb
    assert wait_until(lambda: tcb.ledger_size() == 0)  # no timer to wake the task
    with tcb._lock:  # CLOSED, but its task has not yet deregistered it
        tcb._reset_locked(errors.ConnectionReset("reset for the test"))
    their_next = tcb.snd_nxt
    peer.send_tcp(A_IP, A_MAC, src_port=6004, dst_port=7115, seq=801,
                  ack=their_next, flag_ack=True, payload=b"anyone there?")
    rst = peer.expect_tcp(lambda g: g.flag_rst, timeout=1.0)
    assert rst.seq == their_next
    assert s.counters.get("tcp.rst.no_listener") == 1
    assert s.tcp.connection_count() == 1
    with tcb._lock:
        tcb._work.notify()
    assert wait_until(lambda: s.tcp.connection_count() == 0)


def test_connect_giving_up_in_syn_sent_sends_no_rst(solo):
    s, far_end = solo(tcp_rto_ms=100)
    peer = ScriptedPeer(far_end, ip=B_IP)
    peer.announce(A_IP)
    with pytest.raises(errors.Timeout):
        s.tcp.connect(B_IP, 7116, timeout=0.5)  # the peer never answers
    sent = _all_sent(peer)
    assert len(sent) >= 2  # the SYN and at least one copy
    assert all(seg.flag_syn and not seg.flag_rst for seg in sent), sent
    assert wait_until(lambda: s.tcp.connection_count() == 0)


def test_duplicate_syn_in_syn_rcvd_resends_the_syn_ack(solo):
    s, far_end = solo(tcp_rto_ms=3000)
    peer = ScriptedPeer(far_end, ip=B_IP)
    s.tcp.listen(7117)
    peer.announce(A_IP)
    their_next = peer.handshake(A_IP, A_MAC, 6008, 7117, seq=4000, complete=False)
    peer.send_tcp(A_IP, A_MAC, src_port=6008, dst_port=7117,
                  seq=4000, ack=0, flag_syn=True)  # as if the SYN-ACK were lost
    again = peer.expect_tcp(timeout=1.0)  # well before the 3 s RTO
    assert again.flag_syn and again.flag_ack
    assert again.seq == (their_next - 1) % 2**32 and again.ack == 4001


# --- the TCP core driven by hand: no thread, no timer, now advanced by the test ---


def test_text_after_the_peers_fin_is_acknowledged_not_taken():
    tcb = stub_tcb()
    irs = tcb.rcv_nxt
    tcb._turn([peer_segment(tcb, irs, b"hello")], 0.0)
    tcb._turn([peer_segment(tcb, seq_add(irs, 5), flag_fin=True)], 0.0)
    assert tcb.state is TcbState.CLOSE_WAIT
    out = tcb._turn([peer_segment(tcb, seq_add(irs, 6), b"AFTER-EOF")], 0.0)
    assert tcb.recv_buf == b"hello"
    [ack] = [wire.decode("tcp", raw) for raw in out]
    assert ack.flag_ack and not ack.payload and ack.ack == seq_add(irs, 6)


def test_segment_acknowledging_unsent_data_is_answered_and_dropped():
    tcb = stub_tcb()
    rcv_nxt, snd_nxt = tcb.rcv_nxt, tcb.snd_nxt
    out = tcb._turn([peer_segment(tcb, rcv_nxt, b"bogus", ack=seq_add(snd_nxt, 5000))], 0.0)
    assert tcb.recv_buf == b"" and tcb.rcv_nxt == rcv_nxt
    [ack] = [wire.decode("tcp", raw) for raw in out]
    assert ack.flag_ack and not ack.payload
    assert (ack.seq, ack.ack) == (snd_nxt, rcv_nxt)
    assert tcb.layer.counters.get("tcp.tx.pure_ack") == 1


def _one_stream_case(rng: random.Random) -> None:
    """Cuts, duplicates and reorderings of one stream ending in a FIN, text
    after that FIN, and random ACKs, against a TCB that sends too; now moves
    by hand."""
    tcb = stub_tcb(iss=rng.getrandbits(32), irs=rng.getrandbits(32), mss=64,
                   window_segments=4, time_wait_s=2.0)
    irs = tcb.rcv_nxt
    stream = rng.randbytes(rng.randrange(1, 1500))
    tcb.send_buf.extend(rng.randbytes(rng.randrange(0, 800)))
    cuts = sorted(rng.sample(range(1, len(stream)), min(len(stream) - 1, rng.randrange(12))))
    cuts.append(len(stream))
    pieces = [(start, stream[start:end]) for start, end in zip([0] + cuts, cuts)]
    pieces.append((len(stream), None))  # the FIN
    after_eof = (len(stream) + 1, b"AFTER-EOF")
    schedule = pieces + [rng.choice(pieces + [after_eof])
                         for _ in range(rng.randrange(0, 40 - len(pieces)))]
    for _ in range(rng.randrange(0, len(schedule))):
        i, j = rng.randrange(len(schedule)), rng.randrange(len(schedule))
        schedule[i], schedule[j] = schedule[j], schedule[i]

    def segment(start, data, ack):
        if data is None:
            return peer_segment(tcb, seq_add(irs, start), ack=ack, flag_fin=True)
        return peer_segment(tcb, seq_add(irs, start), data, ack=ack)

    now = 0.0
    close_at = rng.randrange(-20, len(schedule))  # the application closes, or never
    while schedule:
        taken = rng.randrange(1, 4)
        batch, schedule = schedule[:taken], schedule[taken:]
        in_flight = (tcb.snd_nxt - tcb.snd_una) % 2**32
        # a duplicate, some progress, data never sent, or anything at all
        acks = [tcb.snd_una, seq_add(tcb.snd_una, rng.randrange(in_flight + 1)),
                seq_add(tcb.snd_nxt, rng.randrange(1, 5000)), rng.getrandbits(32)]
        inbox = [segment(start, data, rng.choices(acks, weights=(3, 6, 1, 1))[0])
                 for start, data in batch]
        if close_at == len(schedule):
            tcb.close()
        tcb._turn(inbox, now)
        now += rng.choice((0.0, 0.1, 0.6, 1.5))
        assert len(tcb.ooo) <= tcb.window_segments
        assert len(tcb.ledger) <= tcb.window_segments
        assert seq_le(tcb.snd_una, tcb.snd_nxt)
        assert stream.startswith(tcb.recv_buf)
    # the peer sends the whole stream again, in order, and text after its FIN
    tcb._turn([segment(start, data, tcb.snd_una) for start, data in pieces + [after_eof]], now)
    assert stream.startswith(tcb.recv_buf)
    assert tcb.remote_fin_done or tcb.state is TcbState.CLOSED
    if tcb.remote_fin_done:
        assert tcb.recv_buf == stream
    for edge in zip(tcb.history, tcb.history[1:]):
        assert edge in LEGAL_EDGES, f"illegal transition {edge} in {tcb.history}"


def test_seeded_segment_orders_keep_the_core_legal_and_the_stream_exact(monkeypatch):
    """500 seeded cases of up to 40 segments through Tcb._turn: every edge
    legal, queues within the window, snd_una at or before snd_nxt, recv_buf
    a prefix of the stream; nothing raises, no thread starts, under 5 s."""

    def no_threads(_thread):
        raise AssertionError("the TCP core started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    started = time.perf_counter()
    for seed in range(500):
        _one_stream_case(random.Random(seed))
    assert time.perf_counter() - started < 5.0
