"""Span tracing from outside the stack: wrap public functions, time the calls.

A Tracer replaces each listed function or method with a wrapper that
records one span per call: name, start, end, thread, its own id, the
enclosing span on the same thread, the time its child spans covered,
and an optional note.  Spans stay in memory until the run ends.  Every
replaced attribute is put back by restore().
"""

from __future__ import annotations

import csv
import gzip
import itertools
import threading
import time

from netstack import arp, csp, ethernet, ipv4, link, stack, tcp, udp, wire

# spans that block waiting for work; the per-layer self-time table leaves them out
WAIT_SPANS = frozenset({"link.read", "csp.recv", "tcp.recv", "udp.recv_from"})

# the queues whose depth is sampled at every send, by their place in a stack
NAMED_QUEUES = {
    "eth": lambda s: s.eth.inbound,
    "ipv4": lambda s: s.ipv4.inbound,
    "ipv4_dispatch": lambda s: s.ipv4.dispatch_q,
    "tcp": lambda s: s.tcp.inbound,
    "udp": lambda s: s.udp.inbound,
}


def _checksum_note(args, result):
    return len(args[0])


def _segment_note(args, result):
    seg = args[0]
    if seg.payload:
        return "data"
    if seg.flag_ack and not (seg.flag_syn or seg.flag_fin or seg.flag_rst):
        return "pure_ack"
    return "control"


def _task_prefix(name: str) -> str:
    return name.rstrip("0123456789-")


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, thread, id, parent id, child seconds, note)
        self._open = {}  # thread ident -> [[span id, child seconds], ...]
        self._ids = itertools.count(1)
        self._patches = []
        self.windows = []  # (open, close) perf_counter pairs
        self.in_window = False
        self._stacks = ()
        self._queue_names = {}  # id(queue) -> name while its stack is up
        self.queue_peak = {name: 0 for name in NAMED_QUEUES}
        self.live_tasks_peak = 0
        self.counter_deltas = {}
        self._counters_at_open = {}

    # --- spans ---

    def _traced(self, name: str, fn, note=None):
        spans, open_spans, ids = self.spans, self._open, self._ids
        clock, ident = time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            tid = ident()
            frames = open_spans.get(tid)
            if frames is None:
                frames = open_spans[tid] = []
            parent = frames[-1][0] if frames else 0
            frame = [next(ids), 0.0]
            frames.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                frames.pop()
                if frames:
                    frames[-1][1] += end - start
                spans.append((name, start, end, tid, frame[0], parent, frame[1],
                              note(args, result) if note else None))

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._traced(name, original.__func__, note))
        else:
            replacement = self._traced(name, original, note)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        p = self.patch
        p(link.EmulatedEnd, "write_frame", "link.write")
        p(link.EmulatedEnd, "read_frame", "link.read")
        p(wire, "internet_checksum", "wire.checksum", _checksum_note)
        for unit, cls in (("ethernet", wire.EthernetFrame), ("ipv4", wire.Ipv4Packet),
                          ("udp", wire.UdpDatagram)):
            p(cls, "encode", f"wire.encode.{unit}")
            p(cls, "decode", f"wire.decode.{unit}")
        p(wire.TcpSegment, "encode", "wire.encode.tcp", _segment_note)
        p(wire.TcpSegment, "decode", "wire.decode.tcp")
        p(csp.MessageQueue, "send", "csp.send", self._queue_note)
        p(csp.MessageQueue, "send_nowait", "csp.send_nowait", self._queue_note)
        p(csp.MessageQueue, "recv", "csp.recv")
        p(csp.TaskSet, "spawn", "csp.spawn", self._spawn_note)
        p(csp.TaskSet, "join_all", "csp.join_all", lambda args, left: left)
        p(ethernet.EthernetLayer, "send", "ethernet.send")
        p(arp.ArpLayer, "resolve", "arp.resolve")
        p(ipv4.Ipv4Layer, "send", "ipv4.send")
        p(udp.UdpSocket, "send_to", "udp.send_to")
        p(udp.UdpSocket, "recv_from", "udp.recv_from")
        p(tcp.Connection, "send", "tcp.send")
        p(tcp.Connection, "recv", "tcp.recv")
        p(tcp.TcpLayer, "connect", "tcp.connect")
        p(stack.Stack, "up", "stack.up")
        p(stack.Stack, "down", "stack.down")
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # --- notes that keep running peaks instead of per-span data ---

    def _queue_note(self, args, result):
        if self.in_window:
            name = self._queue_names.get(id(args[0]))
            if name is not None:
                depth = len(args[0])
                if depth > self.queue_peak[name]:
                    self.queue_peak[name] = depth
        return None

    def _spawn_note(self, args, result):
        if self.in_window:
            live = sum(s.tasks.census() for s in self._stacks)
            if live > self.live_tasks_peak:
                self.live_tasks_peak = live
        return _task_prefix(args[1])

    # --- the probe interface a round calls ---

    def attach(self, stacks) -> None:
        self._stacks = tuple(stacks)
        self._queue_names = {id(get(s)): name for s in self._stacks
                             for name, get in NAMED_QUEUES.items()}

    def _counters(self) -> dict:
        total = {}
        for s in self._stacks:
            for key, n in s.counters.snapshot().items():
                total[key] = total.get(key, 0) + n
        return total

    def open_window(self) -> None:
        self._counters_at_open = self._counters()
        self.in_window = True
        self.windows.append((time.perf_counter(), None))

    def close_window(self) -> None:
        self.in_window = False
        opened = self.windows[-1][0]
        self.windows[-1] = (opened, time.perf_counter())
        for key, n in self._counters().items():
            delta = n - self._counters_at_open.get(key, 0)
            self.counter_deltas[key] = self.counter_deltas.get(key, 0) + delta
        self._queue_names = {}

    # --- output ---

    def write(self, path) -> None:
        """All spans as gzipped CSV, times in microseconds from the first span."""
        spans = sorted(self.spans, key=lambda s: s[1])
        t0 = spans[0][1] if spans else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="") as f:
            out = csv.writer(f)
            out.writerow(["name", "start_us", "end_us", "thread", "id", "parent",
                          "self_us", "note"])
            for name, start, end, tid, sid, parent, child, note in spans:
                out.writerow([name, round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1),
                              tid, sid, parent, round((end - start - child) * 1e6, 2),
                              "" if note is None else note])
