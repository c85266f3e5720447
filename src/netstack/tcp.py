"""TCP: listeners, connections, and one task per connection.

Both opens go through ``Tcb.open``, which cuts the SYN (``connect``) or
the SYN-ACK (a listener's child) and spawns the task; the task
deregisters the TCB on the turn that finds it CLOSED.  A listener owns
its children until ``accept`` hands them out, the half-open ones in a
set and the established ones in its accept queue, ``backlog`` in all.
Closing it resets every child it still owns.  Our SYN offers our MSS
(the MTU less 40).  The segments we cut are capped by the MSS option in
the peer's SYN or SYN-ACK when it is smaller, and by the default of 536
when the peer sends none (RFC 9293 §3.7.1).

Every local reset is RFC 9293's ABORT (§3.10.5), ``Tcb._abort_locked``:
from SYN_RCVD, ESTABLISHED, FIN_WAIT_1, FIN_WAIT_2 or CLOSE_WAIT it sends
an RST at ``snd_nxt``; from any other state it sends nothing.  The
retransmission limit, a handshake that completes after its listener
closed, ``Listener.close``, a ``connect`` that gives up and the stack's
shutdown all take it.  A CLOSED TCB stays registered until its task's
last turn, and a segment that reaches it meanwhile is answered as if it
had found no TCB (§3.10.7.1): the dealer refuses it with an RST, counted
as ``tcp.rst.no_listener`` like every refusal, or a SYN to a listening
port opens a new child.  A peer's RST resets only at ``rcv_nxt``; one
elsewhere in the window draws a challenge ACK (RFC 5961 §3).

Each connection's TCB is owned by a single task, and only that task
sends the connection's segments, so only it can wait on ARP.  The TCP
dealer hands it each run of consecutive segments it finds in one burst
through a bounded inbox, with one lock and one wake; the application's
send and close calls leave work in the TCB, and ``open`` and ``abort``
leave their SYN or RST in its outbox.  Each turn of the task waits once,
for a segment, for send work or for the connection's earliest deadline,
and reads the clock once.  ``Tcb._turn(inbox, now)`` is the core: it
handles every queued segment, fires the timers due at ``now`` (the
TIME_WAIT or half-open handshake deadline, and the connection's one
retransmission timer), cuts every segment the window allows, and returns
what the task emits outside the lock.  No handler reads the clock, so a
test drives ``_turn`` with no thread and a hand-advanced ``now``.

The ledger holds the in-flight segments in send order.  As in RFC 6298,
one timer covers them all: a timeout resends only the oldest and doubles
the RTO, and an ACK that moves ``snd_una`` restarts it at the configured
RTO.  If that ACK stops short of what was in flight when the timer last
fired, the new oldest segment is resent at once (NewReno's partial
acknowledgment, RFC 6582), so a window with several losses does not pay
one RTO per hole.

An in-order data segment that arrives while no out-of-order data is held
is not acknowledged on its own: it sets ``_ack_owed``, and the turn ends
with one cumulative ACK, or with none if it cut a segment, which carries
``rcv_nxt`` anyway.  A FIN, and any text or FIN that follows it, are
acknowledged the same way.  RFC 5681 §4.2 lets a receiver combine
ACKs, and the same section asks for an immediate ACK of a segment that
is out of order, fills a hole, or falls outside the window; those keep
theirs, so after a loss the sender hears of each step at once.  The ACK
waits on no timer: a turn emits only after its whole batch, so each ACK
it leaves out carried a smaller ack number and would have left at the
same instant.  Unlike RFC 1122 §4.2.3.2, there is no ACK for every
second full segment either.  That rule keeps stretch ACKs from slowing a
congestion window's growth (RFC 2525 §2.13), and this stack has no
congestion window: it sends as many segments as ``tcp_window_segments``
allows.  It holds as many out-of-order entries (more count as
``tcp.drop.ooo_full``) and takes each once ``rcv_nxt`` reaches it.

The TCB's fields are guarded by one lock per connection.  Two condition
variables share it: ``_work`` wakes the connection task, and ``_cond``
wakes application calls waiting for state, data or buffer room.  Both
are ``csp.Condition``s, so a notify with no one parked costs nothing.
"""

from __future__ import annotations

import enum
import random
import threading
import time
from collections import deque

from netstack import addr, wire
from netstack.csp import Condition, Counters, MessageQueue, TaskSet
from netstack.errors import (
    AlreadyBound,
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
_WINDOW = 65535  # the receive window every segment advertises
_DEFAULT_MSS = 536  # what a peer whose SYN carries no MSS option can take


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


_SENDING = (TcbState.ESTABLISHED, TcbState.CLOSE_WAIT)  # states that take new data
# the states from which ABORT sends an RST (RFC 9293 §3.10.5)
_SYNCHRONIZED = (TcbState.SYN_RCVD, TcbState.ESTABLISHED, TcbState.FIN_WAIT_1,
                 TcbState.FIN_WAIT_2, TcbState.CLOSE_WAIT)


class Tcb:
    def __init__(self, layer: "TcpLayer", local: tuple, remote: tuple,
                 listener: "Listener" = None):
        self.layer = layer
        self.local = local    # (ip bytes, port)
        self.remote = remote  # (ip bytes, port)
        self.listener = listener
        self.mss = layer.mss  # largest payload we send; the peer's SYN may lower it
        self.window_segments = layer.window_segments
        self._inbox = []  # segments from the dealer, at most queue_capacity
        self._outbox = []  # segments open() and abort() leave for the task to emit
        self._lock = threading.Lock()
        self._cond = Condition(self._lock)  # application waiters
        self._work = Condition(self._lock)  # the connection task
        self.state = TcbState.LISTEN if listener else TcbState.CLOSED
        self.history = [self.state]
        self.snd_una = 0
        self.snd_nxt = 0
        self.rcv_nxt = 0
        self.send_buf = bytearray()
        self.recv_buf = bytearray()
        self.ooo = {}  # seq -> payload, capped at window_segments entries
        self.ledger = deque()  # (end seq, segment bytes) in flight, oldest first
        self.fin_requested = False
        self.fin_seq = None  # set when our FIN is cut
        self.remote_fin_done = False
        self.error: Exception | None = None  # set only on entering CLOSED
        self._state_deadline = None  # TIME_WAIT's end, or SYN_RCVD's reap
        self._rtx_deadline = None  # runs while the ledger holds anything
        self._rto = layer.rto_s  # doubled by each timeout, reset by progress
        self._timeouts = 0  # timeouts of the oldest segment without progress
        self._recover = None  # snd_nxt when the timer last fired
        self._ack_owed = False  # in-order data or a FIN awaits the turn's ACK

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
        # positional, in field order: ports, seq, ack, window, FIN SYN RST ACK PSH URG, mss
        seg = wire.TcpSegment(self.local[1], self.remote[1], seq,
                              self.rcv_nxt if with_ack else 0, _WINDOW,
                              fin, syn, rst, with_ack, False, False, mss, payload)
        return seg.encode(self.local[0], self.remote[0])

    def _pure_ack(self, out: list) -> None:
        self.layer.counters.incr("tcp.tx.pure_ack")
        out.append(self._segment(self.snd_nxt))

    def _emit(self, raw: bytes) -> None:
        try:
            self.layer.ipv4.send(self.remote[0], wire.PROTO_TCP, raw)
        except NetstackError:
            self.layer.counters.incr("tcp.drop.unroutable")

    def _register_inflight(self, end: int, raw: bytes, now: float) -> None:
        # the first segment in flight starts the timer; the rest ride on it
        if not self.ledger:
            self._rtx_deadline = now + self._rto
        self.ledger.append((end, raw))

    # --- the connection task ---

    def deliver(self, *segs: wire.TcpSegment) -> bool:
        """Queue a run of segments from the TCP dealer for the connection task.

        The inbox holds at most queue_capacity segments; each one past that
        counts as ``tcp.drop.inbox_full``.  False if the TCB is CLOSED: the
        dealer then answers the segments as ones that found no connection.
        """
        with self._lock:
            if self.state is TcbState.CLOSED:
                return False
            room = self.layer.queue_capacity - len(self._inbox)
            if room > 0:
                self._inbox.extend(segs[:room])
                self._work.notify()
        if len(segs) > room:
            self.layer.counters.incr("tcp.drop.inbox_full", len(segs) - room)
        return True

    def run(self) -> None:
        """Own the TCB until it closes: one wait, then one turn."""
        while True:
            with self._lock:
                self._wait_for_work()
                inbox, self._inbox = self._inbox, []
                out = self._turn(inbox, time.monotonic())
                finished = self.state is TcbState.CLOSED
            for raw in out:
                self._emit(raw)
            if finished:
                if self.listener is not None:
                    self.listener._release(self)
                self.layer._deregister(self)
                return

    def _wait_for_work(self) -> None:
        while not (self._inbox or self._outbox or self.state is TcbState.CLOSED
                   or self._can_cut()):
            deadline = self._next_deadline()
            if deadline is None:
                self._work.wait()
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            self._work.wait(remaining)

    def _turn(self, inbox: list, now: float) -> list[bytes]:
        """Handle a batch, fire the timers due at now, cut what the window
        allows and end with at most one ACK; the segments to emit, open's or abort's first."""
        out, self._outbox = self._outbox, []
        for seg in inbox:
            self._handle(seg, now, out)
        self._fire_timers(now, out)
        cut = self._can_cut()
        while self._can_cut():
            out.append(self._cut_segment_locked(now))
        finished = self.state is TcbState.CLOSED
        if self._ack_owed:
            self._ack_owed = False
            if not (cut or finished):  # a cut segment carries rcv_nxt
                self._pure_ack(out)
        if finished:
            self.ledger.clear()
        return out

    def _next_deadline(self) -> float | None:
        deadlines = [d for d in (self._rtx_deadline, self._state_deadline)
                     if d is not None]
        return min(deadlines, default=None)

    def _fire_timers(self, now: float, out: list) -> None:
        if self._state_deadline is not None and now >= self._state_deadline:
            if self.state is TcbState.SYN_RCVD:
                # the peer never completed the handshake; reap silently
                self.layer.counters.incr("tcp.reap.half_open")
            self._enter(TcbState.CLOSED)
            return
        if self.state is TcbState.CLOSED or self._rtx_deadline is None \
                or now < self._rtx_deadline:
            return  # not due, or closed: a closed TCB retransmits nothing
        self._timeouts += 1
        if self._timeouts >= _RETRANSMIT_LIMIT:
            self.layer.counters.incr("tcp.reset.retransmit_limit")
            self._abort_locked(ConnectionReset("retransmission limit reached"), out)
            return
        self._resend_oldest(out)
        self._rto *= 2
        self._rtx_deadline = now + self._rto
        self._recover = self.snd_nxt

    def _resend_oldest(self, out: list) -> None:
        self.layer.counters.incr("tcp.retransmit")
        out.append(self.ledger[0][1])

    # --- the state machine, called with the lock held ---

    def _handle(self, seg: wire.TcpSegment, now: float, out: list) -> None:
        if self.state is TcbState.CLOSED:
            return

        if self.state is TcbState.SYN_SENT:
            self._handle_syn_sent(seg, now, out)
            return

        if seg.flag_rst:
            # RFC 5961 §3: only an RST at rcv_nxt resets; one elsewhere in the
            # window draws a challenge ACK, which a true peer answers at rcv_nxt
            if not self._in_window(seg.seq):
                self.layer.counters.incr("tcp.drop.rst_out_of_window")
                return
            if seg.seq != self.rcv_nxt:
                self.layer.counters.incr("tcp.rst.challenge")
                self._pure_ack(out)
                return
            if self.state is TcbState.SYN_RCVD:
                self.layer.counters.incr("tcp.reap.rst_handshake")
            self._reset_locked(ConnectionReset("reset by peer"))
            return

        if seg.flag_syn:
            # a duplicate SYN: in SYN_RCVD our SYN-ACK may be lost, so resend
            # it, as Linux's tcp_check_req does; later, repeat our ACK
            if self.state is TcbState.SYN_RCVD:
                self._resend_oldest(out)
            else:
                self._pure_ack(out)
            return

        if not seg.flag_ack:
            return

        if self.state is TcbState.SYN_RCVD:
            if seg.ack != self.snd_nxt:
                return
            self._state_deadline = None
            self._enter(TcbState.ESTABLISHED)
            if not self.listener._child_established(self):
                self._abort_locked(ConnectionReset("listener closed"), out)
                return

        if seq_lt(self.snd_nxt, seg.ack):
            self._pure_ack(out)  # it acknowledges data never sent: drop it (§3.10.7.4)
            return

        self._process_ack(seg.ack, now, out)

        if self.fin_seq is not None and seq_le(seq_add(self.fin_seq, 1), self.snd_una):
            if self.state is TcbState.FIN_WAIT_1:
                if self.remote_fin_done:
                    self._enter_time_wait(now)
                else:
                    self._enter(TcbState.FIN_WAIT_2)
            elif self.state is TcbState.LAST_ACK:
                self._enter(TcbState.CLOSED)
                return

        if seg.payload or seg.flag_fin:
            self._process_data(seg, now, out)

    def _handle_syn_sent(self, seg: wire.TcpSegment, now: float, out: list) -> None:
        if seg.flag_rst:
            if seg.flag_ack and seg.ack == self.snd_nxt:
                self._reset_locked(ConnectionRefused(
                    f"{addr.format_ip(self.remote[0])}:{self.remote[1]} refused"))
            return
        if seg.flag_syn and seg.flag_ack and seg.ack == self.snd_nxt:
            self._take_peer_mss(seg)
            self.rcv_nxt = seq_add(seg.seq, 1)
            self._process_ack(seg.ack, now, out)
            self._enter(TcbState.ESTABLISHED)
            self._pure_ack(out)

    def _take_peer_mss(self, syn: wire.TcpSegment) -> None:
        # RFC 9293 §3.7.1: send no segment larger than the peer's MSS option, or
        # than the default without one; an option of 0 counts as none, as
        # cutting empty segments would never end
        self.mss = min(self.layer.mss, syn.mss or _DEFAULT_MSS)

    def _process_ack(self, ack: int, now: float, out: list) -> None:
        if not (seq_lt(self.snd_una, ack) and seq_le(ack, self.snd_nxt)):
            return
        self.snd_una = ack
        while self.ledger and seq_le(self.ledger[0][0], ack):
            self.ledger.popleft()
        self._rto = self.layer.rto_s
        self._timeouts = 0
        self._rtx_deadline = now + self._rto if self.ledger else None
        if self._recover is not None:
            if seq_lt(ack, self._recover):
                self._resend_oldest(out)  # partial ACK: the next hole is lost too
            else:
                self._recover = None

    def _process_data(self, seg: wire.TcpSegment, now: float, out: list) -> None:
        if self.remote_fin_done:
            # RFC 9293 §3.10.7.4 takes no text after the peer's FIN; a FIN
            # again in TIME_WAIT means our ACK of it was lost: restart 2 MSL
            if seg.flag_fin and self.state is TcbState.TIME_WAIT:
                self._state_deadline = now + self.layer.time_wait_s
            self._ack_owed = True
            return
        data = seg.payload
        if data:
            end = seq_add(seg.seq, len(data))
            ack_now = True  # out of order, filling a hole, or out of window
            if seq_le(seg.seq, self.rcv_nxt) and seq_lt(self.rcv_nxt, end):
                ack_now = bool(self.ooo)
                skip = (self.rcv_nxt - seg.seq) & _MASK
                self.recv_buf.extend(data[skip:])
                self.rcv_nxt = end
                if self.ooo:
                    self._drain_out_of_order()
                self._cond.notify_all()
            elif not self._in_window(seg.seq):
                self.layer.counters.incr("tcp.drop.out_of_window")
            elif len(self.ooo) < self.window_segments:
                self.ooo.setdefault(seg.seq, data)
            else:
                self.layer.counters.incr("tcp.drop.ooo_full")
            if ack_now:
                self._pure_ack(out)
            else:
                self._ack_owed = True
        if seg.flag_fin:
            fin_seq = seq_add(seg.seq, len(data))
            if fin_seq == self.rcv_nxt and not self.remote_fin_done:
                self.rcv_nxt = seq_add(self.rcv_nxt, 1)
                self.remote_fin_done = True
                self.ooo.clear()  # held text past the FIN is never taken
                if self.state is TcbState.ESTABLISHED:
                    self._enter(TcbState.CLOSE_WAIT)
                elif self.state is TcbState.FIN_WAIT_2:
                    self._enter_time_wait(now)
                # in FIN_WAIT_1 we hold position until our own FIN is acked
                self._cond.notify_all()
            self._ack_owed = True

    def _in_window(self, seq: int) -> bool:
        return seq_le(self.rcv_nxt, seq) and seq_lt(seq, seq_add(self.rcv_nxt, _WINDOW))

    def _drain_out_of_order(self) -> None:
        # take every held entry rcv_nxt has reached, keeping only its bytes
        # past rcv_nxt: a re-cut retransmission may have ended inside one
        reached = True
        while reached:
            reached = [seq for seq in self.ooo if seq_le(seq, self.rcv_nxt)]
            for seq in reached:
                chunk = self.ooo.pop(seq)
                skip = (self.rcv_nxt - seq) & _MASK
                if skip < len(chunk):
                    self.recv_buf.extend(chunk[skip:])
                    self.rcv_nxt = seq_add(seq, len(chunk))

    def _enter_time_wait(self, now: float) -> None:
        self._state_deadline = now + self.layer.time_wait_s
        self._enter(TcbState.TIME_WAIT)

    def _reset_locked(self, error: Exception) -> None:
        self.error = error
        self._enter(TcbState.CLOSED)

    def _abort_locked(self, error: Exception, out: list) -> None:
        """RFC 9293 §3.10.5's ABORT: an RST from a synchronized state, then
        CLOSED.  SYN_SENT, LAST_ACK, TIME_WAIT and a child not yet opened
        send nothing."""
        if self.state in _SYNCHRONIZED:
            out.append(self._segment(self.snd_nxt, rst=True))
        self._reset_locked(error)

    # --- segmentation ---

    def _can_cut(self) -> bool:
        # cutting the FIN leaves _SENDING, so a requested FIN here is uncut
        return (self.state in _SENDING and len(self.ledger) < self.window_segments
                and (self.fin_requested or len(self.send_buf) > 0))

    def _cut_segment_locked(self, now: float) -> bytes:
        if self.send_buf:
            chunk = bytes(self.send_buf[:self.mss])
            del self.send_buf[:len(chunk)]
            seq = self.snd_nxt
            self.snd_nxt = seq_add(seq, len(chunk))
            raw = self._segment(seq, payload=chunk)
            self._register_inflight(self.snd_nxt, raw, now)
            self._cond.notify_all()  # send() may be waiting for buffer room
            return raw
        seq = self.snd_nxt
        self.snd_nxt = seq_add(seq, 1)
        self.fin_seq = seq
        raw = self._segment(seq, fin=True)
        self._register_inflight(self.snd_nxt, raw, now)
        if self.state is TcbState.ESTABLISHED:
            self._enter(TcbState.FIN_WAIT_1)
        elif self.state is TcbState.CLOSE_WAIT:
            self._enter(TcbState.LAST_ACK)
        return raw

    # --- lifecycle ---

    def open(self, syn: wire.TcpSegment = None) -> None:
        """Cut a SYN, or the SYN-ACK that answers syn, and spawn the task that sends it.

        The state and the handshake deadline are set before the task first
        waits.  A child its closing listener already reset sends nothing.
        """
        iss = self.layer.pick_isn()
        with self._lock:
            now = time.monotonic()
            if syn is None:
                self._enter(TcbState.SYN_SENT)
            elif self.state is TcbState.LISTEN:
                self._take_peer_mss(syn)
                self.rcv_nxt = seq_add(syn.seq, 1)
                self._state_deadline = now + self.layer.handshake_timeout_s
                self._enter(TcbState.SYN_RCVD)
            if self.state is not TcbState.CLOSED:
                self.snd_una = iss
                self.snd_nxt = seq_add(iss, 1)
                raw = self._segment(iss, syn=True, with_ack=syn is not None,
                                    mss=self.layer.mss)
                self._register_inflight(self.snd_nxt, raw, now)
                self._outbox.append(raw)
        self.layer.tasks.spawn(f"tcp-conn-{self.local[1]}", self.run)

    def abort(self, error: Exception) -> None:
        """ABORT from any task; the connection task sends the RST, if any, and cleans up."""
        with self._lock:
            if self.state is not TcbState.CLOSED:
                self._abort_locked(error, self._outbox)
                self._work.notify()

    # --- the application-facing calls ---

    def send(self, data: bytes, timeout: float = None) -> None:
        view = memoryview(bytes(data))
        while view:
            with self._cond:
                ok = self._cond.wait_for(
                    lambda: not self._sendable() or len(self.send_buf) < _SEND_BUFFER_CAP,
                    timeout)
                if not ok:
                    raise Timeout("send buffer stayed full")
                if not self._sendable():
                    raise ConnectionClosed("connection is not open for sending")
                room = _SEND_BUFFER_CAP - len(self.send_buf)
                take = min(room, len(view))
                self.send_buf.extend(view[:take])
                view = view[take:]
                self._work.notify()

    def _sendable(self) -> bool:
        return not self.fin_requested and self.state in _SENDING

    def recv(self, max_bytes: int, timeout: float = None) -> bytes:
        if max_bytes < 1:
            return b""
        with self._cond:
            ok = self._cond.wait_for(
                lambda: self.recv_buf or self.remote_fin_done
                or self.state is TcbState.CLOSED,
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
        """Queue our FIN; a Connection's TCB is never in a handshake state."""
        with self._cond:
            if self.state in _SENDING:
                self.fin_requested = True
                self._cond.notify_all()  # wakes send() calls blocked on room
                self._work.notify()

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
        self._half_open = set()  # children in SYN_RCVD
        self._closed = False

    def _adopt(self, tcb: Tcb) -> bool:
        """Take a new child unless the half-open and queued fill the backlog."""
        with self._lock:
            if self._closed or len(self._half_open) + len(self.accept_q) >= self.backlog:
                return False
            self._half_open.add(tcb)
            return True

    def _child_established(self, tcb: Tcb) -> bool:
        """Queue the child in the slot _adopt reserved; False once closed."""
        with self._lock:
            self._half_open.discard(tcb)
            return not self._closed and self.accept_q.send_nowait(Connection(tcb))

    def _release(self, tcb: Tcb) -> None:
        """The child's task has ended; a half-open one frees its slot."""
        with self._lock:
            self._half_open.discard(tcb)

    def accept(self, timeout: float = None) -> Connection:
        return self.accept_q.recv(timeout)

    def close(self) -> None:
        """Refuse new connections and reset every child not yet accepted.

        The resets run without the listener's lock, which
        _child_established takes while holding a child's lock.
        """
        with self._lock:
            self._closed = True
            children = list(self._half_open)
        self.layer._remove_listener(self)
        self.accept_q.close()
        children.extend(conn.tcb for conn in self.accept_q)
        for tcb in children:
            tcb.abort(ConnectionReset("listener closed"))


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

    def listen(self, port: int, backlog: int = 16) -> Listener:
        port = addr.as_port(port)
        with self._lock:
            if self._port_taken(port):
                raise AlreadyBound(f"tcp port {port}")
            listener = Listener(self, port, backlog)
            self._listeners[port] = listener
            return listener

    def connect(self, dst_ip, dst_port: int, timeout: float = 10.0) -> Connection:
        dst_ip = addr.as_ip(dst_ip)
        dst_port = addr.as_port(dst_port)
        with self._lock:
            local_port = addr.pick_ephemeral(self._next_ephemeral, self._port_taken, "tcp")
            self._next_ephemeral = local_port + 1
            tcb = Tcb(self, local=(self.our_ip, local_port),
                      remote=(dst_ip, dst_port))
            self._connections[tcb.key] = tcb
        tcb.open()
        with tcb._cond:
            tcb._cond.wait_for(lambda: tcb.state is not TcbState.SYN_SENT, timeout)
            if tcb.state not in (TcbState.SYN_SENT, TcbState.CLOSED):
                return Connection(tcb)
            error = tcb.error
        tcb.abort(ConnectionClosed("connect aborted"))
        if error is not None:
            raise error
        raise Timeout(f"no answer from {addr.format_ip(dst_ip)}:{dst_port}")

    # --- dealer ---

    def _dealer_loop(self) -> None:
        for burst in self.inbound:
            key, run = None, []  # consecutive segments of one connection
            for datagram in burst:
                try:
                    seg = wire.decode("tcp", datagram.payload,
                                      src_ip=datagram.src_ip, dst_ip=datagram.dst_ip)
                except WireError:
                    self.counters.incr("tcp.drop.decode")
                    continue
                seg_key = (seg.dst_port, datagram.src_ip, seg.src_port)
                if seg_key != key:
                    self._deliver_run(key, run)
                    key, run = seg_key, []
                run.append(seg)
            self._deliver_run(key, run)
        self.shutdown()

    def _deliver_run(self, key: tuple, run: list) -> None:
        """Hand a run of segments for key to its TCB in one delivery; a segment
        that finds none opens a child on a listening port or is refused."""
        while run:
            with self._lock:
                tcb = self._connections.get(key)
                listener = self._listeners.get(key[0])
            if tcb is not None and tcb.deliver(*run):
                return
            seg, run = run[0], run[1:]  # the rest may find the child this SYN opens
            if listener is not None and seg.flag_syn and not seg.flag_ack \
                    and not seg.flag_rst:
                self._new_server_tcb(listener, key[1], seg)
            elif not seg.flag_rst:
                self._refuse(key[1], seg)

    def _new_server_tcb(self, listener: Listener, peer_ip: bytes,
                        seg: wire.TcpSegment) -> None:
        tcb = Tcb(self, local=(self.our_ip, listener.port),
                  remote=(peer_ip, seg.src_port), listener=listener)
        if not listener._adopt(tcb):
            self.counters.incr("tcp.drop.backlog_full")
            return
        with self._lock:
            self._connections[tcb.key] = tcb
        tcb.open(seg)

    def _refuse(self, peer_ip: bytes, seg: wire.TcpSegment) -> None:
        self.counters.incr("tcp.rst.no_listener")
        rst = wire.TcpSegment(
            src_port=seg.dst_port, dst_port=seg.src_port,
            seq=seg.ack if seg.flag_ack else 0,
            ack=seq_add(seg.seq, seg.seq_span()),
            flag_rst=True, flag_ack=True)
        try:
            self.ipv4.send(peer_ip, wire.PROTO_TCP, rst.encode(self.our_ip, peer_ip),
                           unroutable="tcp.drop.unroutable")
        except NetstackError:
            self.counters.incr("tcp.drop.unroutable")

    # --- registration plumbing ---

    def _port_taken(self, port: int) -> bool:
        return port in self._listeners or any(key[0] == port for key in self._connections)

    def _remove_listener(self, listener: Listener) -> None:
        with self._lock:  # a second close() must not remove a newer listener
            if self._listeners.get(listener.port) is listener:
                del self._listeners[listener.port]

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
        """Close every listener and abort every connection; the dealer's last act."""
        with self._lock:
            listeners = list(self._listeners.values())
            tcbs = list(self._connections.values())
        for listener in listeners:
            listener.close()
        for tcb in tcbs:
            tcb.abort(ConnectionClosed("stack shut down"))
