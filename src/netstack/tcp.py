"""TCP: listeners, connections, and one task per connection.

Each connection's TCB is owned by a single task.  The TCP dealer hands
it segments through a bounded inbox, and the application's send and
close calls leave work in the TCB.  Each turn of the task waits once,
for a segment, for send work or for the connection's earliest deadline.
It then handles every queued segment, fires the timers that are due
(the TIME_WAIT or half-open handshake deadline, and the connection's one
retransmission timer), cuts every segment the window allows, and emits
all of it outside the lock.

The ledger holds the in-flight segments in send order.  As in RFC 6298,
one timer covers them all: a timeout resends only the oldest and doubles
the RTO, and an ACK that moves ``snd_una`` restarts it at the configured
RTO.  If that ACK stops short of what was in flight when the timer last
fired, the new oldest segment is resent at once (NewReno's partial
acknowledgment, RFC 6582), so a window with several losses does not pay
one RTO per hole.

The TCB's fields are guarded by one lock per connection.  Two condition
variables share it: ``_work`` wakes the connection task, and ``_cond``
wakes application calls waiting for state, data or buffer room.
"""

from __future__ import annotations

import enum
import random
import threading
import time
from collections import deque

from netstack import addr, wire
from netstack.csp import Counters, MessageQueue, TaskSet
from netstack.errors import (
    AlreadyBound,
    Closed,
    ConnectionClosed,
    ConnectionRefused,
    ConnectionReset,
    NetstackError,
    Timeout,
    WireError,
)

_MASK = 0xFFFFFFFF
_SEND_BUFFER_CAP = 262144
_RETRANSMIT_LIMIT = 5  # transmissions counting the first; the 5th timeout resets


def seq_add(a: int, n: int) -> int:
    return (a + n) & _MASK


def seq_lt(a: int, b: int) -> bool:
    return a != b and ((b - a) & _MASK) < 0x80000000


def seq_le(a: int, b: int) -> bool:
    return ((b - a) & _MASK) < 0x80000000


class TcbState(enum.Enum):
    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"


class Tcb:
    def __init__(self, layer: "TcpLayer", local: tuple, remote: tuple,
                 listener: "Listener" = None):
        self.layer = layer
        self.local = local    # (ip bytes, port)
        self.remote = remote  # (ip bytes, port)
        self.listener = listener
        self.mss = layer.mss
        self.window_segments = layer.window_segments
        self._inbox = []  # segments from the dealer, at most queue_capacity
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)  # application waiters
        self._work = threading.Condition(self._lock)  # the connection task
        self.state = TcbState.LISTEN if listener else TcbState.CLOSED
        self.history = [self.state]
        self.iss = 0
        self.snd_una = 0
        self.snd_nxt = 0
        self.rcv_nxt = 0
        self.send_buf = bytearray()
        self.recv_buf = bytearray()
        self.ooo = {}  # seq -> payload, capped at window_segments entries
        self.ledger = deque()  # (end seq, segment bytes) in flight, oldest first
        self.fin_requested = False
        self.fin_sent = False
        self.fin_seq = None
        self.remote_fin_done = False
        self.error: Exception | None = None
        self.done = False
        self._state_deadline = None  # TIME_WAIT's end, or SYN_RCVD's reap
        self._rtx_deadline = None  # runs while the ledger holds anything
        self._rto = layer.rto_s  # doubled by each timeout, reset by progress
        self._timeouts = 0  # timeouts of the oldest segment without progress
        self._recover = None  # snd_nxt when the timer last fired

    # --- helpers ---

    def _enter(self, state: TcbState) -> None:
        if self.state is state:
            return
        self.state = state
        self.history.append(state)
        self._cond.notify_all()

    def _segment(self, seq: int, payload: bytes = b"", fin: bool = False,
                 syn: bool = False, rst: bool = False, with_ack: bool = True,
                 mss: int = None) -> bytes:
        seg = wire.TcpSegment(
            src_port=self.local[1], dst_port=self.remote[1],
            seq=seq, ack=self.rcv_nxt if with_ack else 0,
            window=65535, flag_fin=fin, flag_syn=syn, flag_rst=rst,
            flag_ack=with_ack, mss=mss, payload=payload,
        )
        return seg.encode(self.local[0], self.remote[0])

    def _emit(self, raw: bytes) -> None:
        try:
            self.layer.ipv4.send(self.remote[0], wire.PROTO_TCP, raw)
        except NetstackError:
            self.layer.counters.incr("tcp.drop.unroutable")

    def _register_inflight(self, end: int, raw: bytes) -> None:
        # the first segment in flight starts the timer; the rest ride on it
        if not self.ledger:
            self._rtx_deadline = time.monotonic() + self._rto
        self.ledger.append((end, raw))

    # --- the connection task ---

    def deliver(self, seg: wire.TcpSegment) -> None:
        """Queue a segment from the TCP dealer for the connection task."""
        with self._lock:
            if self.state is TcbState.CLOSED:
                drop = "tcp.drop.closing"
            elif len(self._inbox) >= self.layer.queue_capacity:
                drop = "tcp.drop.inbox_full"
            else:
                self._inbox.append(seg)
                self._work.notify()
                return
        self.layer.counters.incr(drop)

    def run(self) -> None:
        """Own the TCB until it closes: one wait, then one batch per turn."""
        while True:
            out = []
            with self._lock:
                self._wait_for_work()
                inbox, self._inbox = self._inbox, []
                for seg in inbox:
                    self._handle(seg, out)
                self._fire_timers(out)
                while self._can_cut():
                    out.append(self._cut_segment_locked())
                finished = self.state is TcbState.CLOSED
                if finished:
                    self.done = True
                    self.ledger.clear()
                    self._cond.notify_all()
            for raw in out:
                self._emit(raw)
            if finished:
                self.layer._deregister(self)
                return

    def _wait_for_work(self) -> None:
        while not (self._inbox or self.state is TcbState.CLOSED
                   or self._can_cut()):
            deadline = self._next_deadline()
            if deadline is None:
                self._work.wait()
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            self._work.wait(remaining)

    def _next_deadline(self) -> float | None:
        deadlines = [d for d in (self._rtx_deadline, self._state_deadline)
                     if d is not None]
        return min(deadlines, default=None)

    def _fire_timers(self, out: list) -> None:
        now = time.monotonic()
        if self._state_deadline is not None and now >= self._state_deadline:
            if self.state is TcbState.SYN_RCVD:
                # the peer never completed the handshake; reap silently
                self.layer.counters.incr("tcp.reap.half_open")
                if self.listener is not None:
                    self.listener._child_gone()
            self._enter(TcbState.CLOSED)
            return
        if self.state is TcbState.CLOSED or self._rtx_deadline is None \
                or now < self._rtx_deadline:
            return  # not due, or closed: a closed TCB retransmits nothing
        self._timeouts += 1
        if self._timeouts >= _RETRANSMIT_LIMIT:
            self.layer.counters.incr("tcp.reset.retransmit_limit")
            out.append(self._segment(self.snd_nxt, rst=True))
            self._reset_locked(ConnectionReset("retransmission limit reached"))
            return
        self._resend_oldest(out)
        self._rto *= 2
        self._rtx_deadline = now + self._rto
        self._recover = self.snd_nxt

    def _resend_oldest(self, out: list) -> None:
        self.layer.counters.incr("tcp.retransmit")
        out.append(self.ledger[0][1])

    # --- the state machine, called with the lock held ---

    def _handle(self, seg: wire.TcpSegment, out: list) -> None:
        if self.state is TcbState.CLOSED:
            return

        if self.state is TcbState.SYN_SENT:
            self._handle_syn_sent(seg, out)
            return

        if seg.flag_rst:
            self._handle_rst()
            return

        if seg.flag_syn:
            # duplicate SYN on an existing connection: repeat our ACK
            out.append(self._segment(self.snd_nxt))
            return

        if not seg.flag_ack:
            return

        if self.state is TcbState.SYN_RCVD:
            if seg.ack == self.snd_nxt:
                self._state_deadline = None
                self._enter(TcbState.ESTABLISHED)
                if self.listener is not None:
                    self.listener._child_established(self)
            else:
                return

        self._process_ack(seg.ack, out)

        if self.fin_sent and seq_le(seq_add(self.fin_seq, 1), self.snd_una):
            if self.state is TcbState.FIN_WAIT_1:
                if self.remote_fin_done:
                    self._enter_time_wait()
                else:
                    self._enter(TcbState.FIN_WAIT_2)
            elif self.state is TcbState.LAST_ACK:
                self._enter(TcbState.CLOSED)
                return

        if seg.payload or seg.flag_fin:
            self._process_data(seg, out)

    def _handle_syn_sent(self, seg: wire.TcpSegment, out: list) -> None:
        if seg.flag_rst:
            if seg.flag_ack and seg.ack == self.snd_nxt:
                self.error = ConnectionRefused(
                    f"{addr.format_ip(self.remote[0])}:{self.remote[1]} refused")
                self._enter(TcbState.CLOSED)
            return
        if seg.flag_syn and seg.flag_ack and seg.ack == self.snd_nxt:
            self.rcv_nxt = seq_add(seg.seq, 1)
            self._process_ack(seg.ack, out)
            self._enter(TcbState.ESTABLISHED)
            out.append(self._segment(self.snd_nxt))

    def _handle_rst(self) -> None:
        if self.state is TcbState.SYN_RCVD and self.listener is not None:
            self.listener._child_gone()
            self.layer.counters.incr("tcp.reap.rst_handshake")
        else:
            self.error = ConnectionReset("reset by peer")
        self._enter(TcbState.CLOSED)

    def _process_ack(self, ack: int, out: list) -> None:
        if not (seq_lt(self.snd_una, ack) and seq_le(ack, self.snd_nxt)):
            return
        self.snd_una = ack
        while self.ledger and seq_le(self.ledger[0][0], ack):
            self.ledger.popleft()
        self._rto = self.layer.rto_s
        self._timeouts = 0
        self._rtx_deadline = time.monotonic() + self._rto if self.ledger else None
        if self._recover is not None:
            if seq_lt(ack, self._recover):
                self._resend_oldest(out)  # partial ACK: the next hole is lost too
            else:
                self._recover = None

    def _process_data(self, seg: wire.TcpSegment, out: list) -> None:
        if self.state is TcbState.TIME_WAIT:
            out.append(self._segment(self.snd_nxt))
            return
        data = seg.payload
        if data:
            end = seq_add(seg.seq, len(data))
            if seq_le(seg.seq, self.rcv_nxt) and seq_lt(self.rcv_nxt, end):
                skip = (self.rcv_nxt - seg.seq) & _MASK
                self.recv_buf.extend(data[skip:])
                self.rcv_nxt = end
                self._drain_out_of_order()
                self._cond.notify_all()
            elif (seq_lt(self.rcv_nxt, seg.seq)
                    and seq_lt(seg.seq, seq_add(self.rcv_nxt, 65535))
                    and len(self.ooo) < self.window_segments):
                self.ooo.setdefault(seg.seq, data)
            else:
                self.layer.counters.incr("tcp.drop.out_of_window")
            out.append(self._segment(self.snd_nxt))
        if seg.flag_fin:
            fin_seq = seq_add(seg.seq, len(data))
            if fin_seq == self.rcv_nxt and not self.remote_fin_done:
                self.rcv_nxt = seq_add(self.rcv_nxt, 1)
                self.remote_fin_done = True
                if self.state is TcbState.ESTABLISHED:
                    self._enter(TcbState.CLOSE_WAIT)
                elif self.state is TcbState.FIN_WAIT_2:
                    self._enter_time_wait()
                # in FIN_WAIT_1 we hold position until our own FIN is acked
                self._cond.notify_all()
            if not data:
                out.append(self._segment(self.snd_nxt))

    def _drain_out_of_order(self) -> None:
        while self.rcv_nxt in self.ooo:
            chunk = self.ooo.pop(self.rcv_nxt)
            self.recv_buf.extend(chunk)
            self.rcv_nxt = seq_add(self.rcv_nxt, len(chunk))

    def _enter_time_wait(self) -> None:
        self._state_deadline = time.monotonic() + self.layer.time_wait_s
        self._enter(TcbState.TIME_WAIT)

    def _reset_locked(self, error: Exception) -> None:
        """Close the TCB with error, telling the listener of a half-open child."""
        if self.error is None:
            self.error = error
        if self.state is TcbState.SYN_RCVD and self.listener is not None:
            self.listener._child_gone()
        self._enter(TcbState.CLOSED)

    # --- segmentation ---

    def _can_cut(self) -> bool:
        if self.state not in (TcbState.ESTABLISHED, TcbState.CLOSE_WAIT):
            return False
        if len(self.ledger) >= self.window_segments:
            return False
        if self.send_buf:
            return True
        return self.fin_requested and not self.fin_sent

    def _cut_segment_locked(self) -> bytes:
        if self.send_buf:
            chunk = bytes(self.send_buf[:self.mss])
            del self.send_buf[:len(chunk)]
            seq = self.snd_nxt
            self.snd_nxt = seq_add(seq, len(chunk))
            raw = self._segment(seq, payload=chunk)
            self._register_inflight(self.snd_nxt, raw)
            self._cond.notify_all()  # send() may be waiting for buffer room
            return raw
        seq = self.snd_nxt
        self.snd_nxt = seq_add(seq, 1)
        self.fin_sent = True
        self.fin_seq = seq
        raw = self._segment(seq, fin=True)
        self._register_inflight(self.snd_nxt, raw)
        if self.state is TcbState.ESTABLISHED:
            self._enter(TcbState.FIN_WAIT_1)
        elif self.state is TcbState.CLOSE_WAIT:
            self._enter(TcbState.LAST_ACK)
        return raw

    # --- lifecycle ---

    def start_task(self) -> None:
        """Spawn the connection task; a TCB found CLOSED by it is finished."""
        self.layer.tasks.spawn(f"tcp-conn-{self.local[1]}", self.run)

    def start_connect(self) -> None:
        with self._lock:
            self.iss = self.layer.pick_isn()
            self.snd_una = self.iss
            self.snd_nxt = seq_add(self.iss, 1)
            raw = self._segment(self.iss, syn=True, with_ack=False, mss=self.mss)
            self._register_inflight(self.snd_nxt, raw)
            self._enter(TcbState.SYN_SENT)
        self._emit(raw)

    def start_accept(self, seg: wire.TcpSegment) -> None:
        """Take a listener's SYN: enter SYN_RCVD and answer with SYN-ACK."""
        with self._lock:
            self.rcv_nxt = seq_add(seg.seq, 1)
            self.iss = self.layer.pick_isn()
            self.snd_una = self.iss
            self.snd_nxt = seq_add(self.iss, 1)
            self._state_deadline = time.monotonic() + self.layer.handshake_timeout_s
            raw = self._segment(self.iss, syn=True, mss=self.mss)
            self._register_inflight(self.snd_nxt, raw)
            self._enter(TcbState.SYN_RCVD)
        self._emit(raw)

    def force_reset(self, error: Exception) -> None:
        """Abort from any task: close the TCB without telling the peer."""
        with self._lock:
            if self.state is TcbState.CLOSED:
                return
            self._reset_locked(error)
            self._work.notify()  # the connection task completes the cleanup

    # --- the application-facing calls ---

    def send(self, data: bytes, timeout: float = None) -> None:
        view = memoryview(bytes(data))
        while view:
            with self._cond:
                ok = self._cond.wait_for(
                    lambda: self.done or self.error is not None
                    or self.fin_requested
                    or (self.state in (TcbState.ESTABLISHED, TcbState.CLOSE_WAIT)
                        and len(self.send_buf) < _SEND_BUFFER_CAP),
                    timeout)
                if not ok:
                    raise Timeout("send buffer stayed full")
                if self.done or self.error is not None or self.fin_requested \
                        or self.state not in (TcbState.ESTABLISHED, TcbState.CLOSE_WAIT):
                    raise ConnectionClosed("connection is not open for sending")
                room = _SEND_BUFFER_CAP - len(self.send_buf)
                take = min(room, len(view))
                self.send_buf.extend(view[:take])
                view = view[take:]
                self._work.notify()

    def recv(self, max_bytes: int, timeout: float = None) -> bytes:
        if max_bytes < 1:
            return b""
        with self._cond:
            ok = self._cond.wait_for(
                lambda: self.recv_buf or self.remote_fin_done
                or self.error is not None or self.done,
                timeout)
            if not ok:
                raise Timeout("nothing received within timeout")
            if self.recv_buf:
                out = bytes(self.recv_buf[:max_bytes])
                del self.recv_buf[:max_bytes]
                return out
            if self.error is not None:
                raise self.error
            if self.remote_fin_done:
                return b""
            raise ConnectionReset("connection went away")

    def close(self) -> None:
        with self._cond:
            if self.done or self.fin_requested:
                return
            if self.state in (TcbState.ESTABLISHED, TcbState.CLOSE_WAIT):
                self.fin_requested = True
                self._cond.notify_all()  # wakes send() calls blocked on room
                self._work.notify()
                return
            abort = self.state in (TcbState.SYN_SENT, TcbState.SYN_RCVD, TcbState.LISTEN)
        if abort:
            self.force_reset(ConnectionClosed("closed during handshake"))

    # --- introspection, mostly for tests and benchmarks ---

    @property
    def key(self):
        return (self.local[1], self.remote[0], self.remote[1])

    def snapshot_state(self) -> TcbState:
        with self._lock:
            return self.state

    def snapshot_history(self) -> list[TcbState]:
        with self._lock:
            return list(self.history)

    def ledger_size(self) -> int:
        with self._lock:
            return len(self.ledger)


class Connection:
    """Byte-stream handle over one TCB."""

    def __init__(self, tcb: Tcb):
        self.tcb = tcb

    @property
    def local(self):
        return self.tcb.local

    @property
    def remote(self):
        return self.tcb.remote

    @property
    def state(self) -> TcbState:
        return self.tcb.snapshot_state()

    def send(self, data: bytes, timeout: float = None) -> None:
        self.tcb.send(data, timeout)

    def recv(self, max_bytes: int = 65536, timeout: float = None) -> bytes:
        return self.tcb.recv(max_bytes, timeout)

    def recv_exactly(self, n: int, timeout: float = None) -> bytes:
        """Keep reading until n bytes or EOF; handy for transfer checks."""
        chunks = []
        got = 0
        while got < n:
            chunk = self.tcb.recv(n - got, timeout)
            if not chunk:
                break
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        self.tcb.close()


class Listener:
    def __init__(self, layer: "TcpLayer", port: int, backlog: int):
        self.layer = layer
        self.port = port
        self.backlog = backlog
        self.accept_q = MessageQueue(backlog)
        self._lock = threading.Lock()
        self._half_open = 0
        self._closed = False

    def _try_reserve(self) -> bool:
        with self._lock:
            if self._closed or self._half_open + len(self.accept_q) >= self.backlog:
                return False
            self._half_open += 1
            return True

    def _child_gone(self) -> None:
        with self._lock:
            self._half_open = max(0, self._half_open - 1)

    def _child_established(self, tcb: Tcb) -> None:
        self._child_gone()
        try:
            if not self.accept_q.send_nowait(Connection(tcb)):
                # tcb's lock is already held: this runs inside its _handle
                tcb._reset_locked(ConnectionReset("accept backlog overflow"))
        except Closed:
            pass  # listener shut down while the handshake finished

    def accept(self, timeout: float = None) -> Connection:
        return self.accept_q.recv(timeout)

    def close(self) -> None:
        with self._lock:
            self._closed = True
        self.layer._remove_listener(self.port)
        self.accept_q.close()


class TcpLayer:
    def __init__(self, ipv4, config, counters: Counters, tasks: TaskSet):
        self.ipv4 = ipv4
        self.counters = counters
        self.tasks = tasks
        self.our_ip = config.ip_bytes
        self.mss = config.mtu - 40
        self.queue_capacity = config.queue_capacity
        self.window_segments = config.tcp_window_segments
        self.rto_s = config.tcp_rto_ms / 1000.0
        self.time_wait_s = config.tcp_time_wait_ms / 1000.0
        self.handshake_timeout_s = config.tcp_handshake_timeout_ms / 1000.0
        self.default_backlog = config.tcp_backlog
        self.inbound = MessageQueue(config.queue_capacity)
        self._lock = threading.Lock()
        self._connections = {}  # (local port, remote ip, remote port) -> Tcb
        self._listeners = {}  # port -> Listener
        self._next_ephemeral = addr.EPHEMERAL_FIRST
        self._isn_rng = random.Random(config.isn_seed)

    def start(self) -> None:
        self.ipv4.registry.bind(wire.PROTO_TCP, self.inbound)
        self.tasks.spawn("tcp-dealer", self._dealer_loop)

    def pick_isn(self) -> int:
        with self._lock:
            return self._isn_rng.randrange(0, 2 ** 32)

    # --- public API ---

    def listen(self, port: int, backlog: int = None) -> Listener:
        with self._lock:
            if self._port_taken(port):
                raise AlreadyBound(f"tcp port {port}")
            listener = Listener(self, port, backlog or self.default_backlog)
            self._listeners[port] = listener
            return listener

    def connect(self, dst_ip, dst_port: int, timeout: float = 10.0) -> Connection:
        dst_ip = addr.as_ip(dst_ip)
        with self._lock:
            local_port = addr.pick_ephemeral(self._next_ephemeral, self._port_taken, "tcp")
            self._next_ephemeral = local_port + 1
            tcb = Tcb(self, local=(self.our_ip, local_port),
                      remote=(dst_ip, dst_port))
            self._connections[tcb.key] = tcb
        # leave CLOSED before the task starts, which would take CLOSED as done
        tcb.start_connect()
        tcb.start_task()
        with tcb._cond:
            tcb._cond.wait_for(
                lambda: tcb.state is TcbState.ESTABLISHED or tcb.done
                or tcb.error is not None, timeout)
            if tcb.state is TcbState.ESTABLISHED:
                return Connection(tcb)
            error = tcb.error
        tcb.force_reset(ConnectionClosed("connect aborted"))
        if error is not None:
            raise error
        raise Timeout(f"no answer from {addr.format_ip(dst_ip)}:{dst_port}")

    # --- dealer ---

    def _dealer_loop(self) -> None:
        while True:
            try:
                datagram = self.inbound.recv()
            except Closed:
                return
            try:
                seg = wire.decode("tcp", datagram.payload,
                                  src_ip=datagram.src_ip, dst_ip=datagram.dst_ip)
            except WireError:
                self.counters.incr("tcp.drop.decode")
                continue
            key = (seg.dst_port, datagram.src_ip, seg.src_port)
            with self._lock:
                tcb = self._connections.get(key)
                listener = self._listeners.get(seg.dst_port)
            if tcb is not None:
                tcb.deliver(seg)
                continue
            if listener is not None and seg.flag_syn and not seg.flag_ack \
                    and not seg.flag_rst:
                self._new_server_tcb(listener, datagram.src_ip, seg)
                continue
            if not seg.flag_rst:
                self._refuse(datagram.src_ip, seg)

    def _new_server_tcb(self, listener: Listener, peer_ip: bytes,
                        seg: wire.TcpSegment) -> None:
        if not listener._try_reserve():
            self.counters.incr("tcp.drop.backlog_full")
            return
        tcb = Tcb(self, local=(self.our_ip, listener.port),
                  remote=(peer_ip, seg.src_port), listener=listener)
        with self._lock:
            self._connections[tcb.key] = tcb
        # arm the handshake deadline before the connection task first waits,
        # or a silent peer would park it forever
        tcb.start_accept(seg)
        tcb.start_task()

    def _refuse(self, peer_ip: bytes, seg: wire.TcpSegment) -> None:
        self.counters.incr("tcp.rst.no_listener")
        rst = wire.TcpSegment(
            src_port=seg.dst_port, dst_port=seg.src_port,
            seq=seg.ack if seg.flag_ack else 0,
            ack=seq_add(seg.seq, seg.seq_span()),
            flag_rst=True, flag_ack=True)
        try:
            self.ipv4.send(peer_ip, wire.PROTO_TCP,
                           rst.encode(self.our_ip, peer_ip))
        except NetstackError:
            pass

    # --- registration plumbing ---

    def _port_taken(self, port: int) -> bool:
        return port in self._listeners or any(key[0] == port for key in self._connections)

    def _remove_listener(self, port: int) -> None:
        with self._lock:
            self._listeners.pop(port, None)

    def _deregister(self, tcb: Tcb) -> None:
        with self._lock:
            if self._connections.get(tcb.key) is tcb:
                del self._connections[tcb.key]

    def connection_count(self) -> int:
        with self._lock:
            return len(self._connections)

    def connections(self) -> list:
        """Snapshot of live TCBs; audit surface, like connection_count."""
        with self._lock:
            return list(self._connections.values())

    def shutdown(self) -> None:
        """Force every connection down; used by stack teardown."""
        with self._lock:
            listeners = list(self._listeners.values())
            tcbs = list(self._connections.values())
        for listener in listeners:
            listener.close()
        for tcb in tcbs:
            tcb.force_reset(ConnectionClosed("stack shut down"))
