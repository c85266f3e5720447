"""The benchmark's three closed-loop workloads.

Every round brings up a fresh pair of stacks on one in-process emulated
wire (zero delay, no loss, MTU 1500, shipped StackConfig defaults),
warms ARP with one ping, opens its connection or binds its sockets, and
only then opens the timed window.  Load comes from at most two threads
and one flow; every delivered byte is checked against what was sent.

Windows and latencies are timed on the process's CPU clock
(``time.process_time``), and run.py pins the process to one core.  On
that core the stack never idles (the wire has no delay), so a CPU
second is a second of the core the stack had to itself; time other
processes took from the core is left out.  run.py then converts each
round's CPU time to reference seconds (see refclock.py).  The wall
clock still bounds each window.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from dataclasses import dataclass, field

from netstack import link, stack
from netstack.config import StackConfig
from netstack.errors import NetstackError, Timeout
from perfbench.refclock import cpu_clock

A_IP, A_MAC = "10.0.0.1", "02:00:00:00:00:01"
B_IP, B_MAC = "10.0.0.2", "02:00:00:00:00:02"
PORT = 4000
CLIENT_PORT = 4001
MIB = 1 << 20
BLOCK = 256 << 10  # tcp_bulk's unit of send, digest and latency; its ops are MiB
OP_TIMEOUT = 3.0  # longer than the 1 s RTO, so a reply the stack retransmits still counts
JOIN_TIMEOUT = 10.0
GENERATOR_THREADS = 2  # every workload: the caller plus one peer thread
FLOWS = 1  # one connection, or one UDP socket pair


class PayloadMismatch(Exception):
    """A delivered byte differs from the byte that was sent: the run is wrong."""


class HealthFailure(Exception):
    """A lossless round dropped, retransmitted, leaked or failed to set up."""


@dataclass
class Round:
    setup_s: float  # CPU seconds from the first stack's creation to the open connection or sockets
    window_open: float = 0.0  # wall clock (perf_counter)
    window_close: float = 0.0
    cpu_open: float = 0.0  # cpu_clock at the same two moments
    cpu_close: float = 0.0
    attempted: int = 0
    ops: float = 0  # verified operations (MiB for tcp_bulk, request/reply pairs otherwise)
    failed: int = 0  # attempts that were not verified
    payload_bytes: int = 0  # verified payload bytes, both directions
    latencies: list = field(default_factory=list)  # CPU seconds, one per verified attempt
    counters: dict = field(default_factory=dict)  # both stacks, read before teardown
    tasks_left: int = 0
    ref_per_cpu_s: float = 1.0  # set by the caller from the reference bursts around the round

    @property
    def elapsed(self) -> float:
        return self.window_close - self.window_open

    @property
    def cpu_elapsed(self) -> float:
        return self.cpu_close - self.cpu_open

    @property
    def ref_elapsed(self) -> float:
        return self.cpu_elapsed * self.ref_per_cpu_s

    def open_window(self, probe) -> float:
        """Open the timed window; returns its wall-clock deadline base."""
        probe.open_window()
        self.cpu_open = cpu_clock()
        self.window_open = time.perf_counter()
        return self.window_open

    def close_window(self, probe, wall=None, cpu=None) -> None:
        self.window_close = wall or time.perf_counter()
        self.cpu_close = cpu or cpu_clock()
        probe.close_window()


def ref_latencies(rounds) -> list:
    """Every verified attempt's latency, in reference seconds."""
    return [s * r.ref_per_cpu_s for r in rounds for s in r.latencies]


class NullProbe:
    """What a round tells the tracer; the untraced run ignores it all."""

    def attach(self, stacks) -> None:
        pass

    def open_window(self) -> None:
        pass

    def close_window(self) -> None:
        pass


def echo(data: bytes) -> bytes:
    """The UDP echo thread's reply: the datagram unchanged."""
    return data


def rpc_reply(request: bytes) -> bytes:
    """The TCP echo thread's 512 B reply to a 64 B request."""
    return request * 8


class Workload:
    name = ""
    why = ""

    def open(self, a, b):
        raise NotImplementedError

    def drive(self, endpoints, rng: random.Random, seconds: float, rnd: Round, probe) -> None:
        raise NotImplementedError

    def close(self, endpoints) -> None:
        raise NotImplementedError


def recv_exactly(conn, n: int, timeout: float) -> bytes:
    """Read n bytes through Connection.recv, so each wait is its own call."""
    chunks = []
    got = 0
    while got < n:
        chunk = conn.recv(n - got, timeout)
        if not chunk:
            break
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _join(thread: threading.Thread) -> None:
    thread.join(JOIN_TIMEOUT)
    if thread.is_alive():
        raise HealthFailure(f"generator thread {thread.name} did not stop")


class _TcpWorkload(Workload):
    """One established connection, opened as the last step of set-up."""

    def open(self, a, b):
        listener = b.tcp.listen(PORT)
        client = a.tcp.connect(B_IP, PORT, timeout=OP_TIMEOUT)
        server = listener.accept(timeout=OP_TIMEOUT)
        return listener, client, server

    def close(self, endpoints):
        listener, client, server = endpoints
        listener.close()
        client.close()
        server.close()


class TcpBulk(_TcpWorkload):
    name = "tcp_bulk"
    why = ("one TCP stream of seeded 256 KiB blocks, verified by digest: "
           "per-byte work (segmentation, checksums, copies, one retransmit actor per segment)")

    def drive(self, endpoints, rng, seconds, rnd, probe):
        _listener, client, server = endpoints
        pool = rng.randbytes(2 * BLOCK)
        digests = []  # sha256 of each block, appended before it is sent
        started = []
        got = {"ops": 0, "last": 0.0, "last_cpu": 0.0, "mismatch": None, "timeout": False}

        def receive():
            h = hashlib.sha256()
            filled = 0
            while True:
                try:
                    chunk = server.recv(65536, OP_TIMEOUT)
                except Timeout:
                    got["timeout"] = True
                    return
                except NetstackError:
                    return
                if not chunk:
                    return
                view = memoryview(chunk)
                while view:
                    take = min(BLOCK - filled, len(view))
                    h.update(view[:take])
                    filled += take
                    view = view[take:]
                    if filled == BLOCK:
                        i = got["ops"]
                        if h.digest() != digests[i]:
                            got["mismatch"] = f"tcp_bulk: block {i} arrived with a different digest"
                            return
                        now = cpu_clock()
                        rnd.latencies.append(now - started[i])
                        got["ops"] = i + 1
                        got["last"] = time.perf_counter()
                        got["last_cpu"] = now
                        h = hashlib.sha256()
                        filled = 0

        receiver = threading.Thread(target=receive, name="bench-bulk-receiver", daemon=True)
        receiver.start()
        deadline = rnd.open_window(probe) + seconds
        try:
            while time.perf_counter() < deadline:
                i = len(digests)
                offset = rng.randrange(BLOCK)
                block = i.to_bytes(8, "big") + pool[offset:offset + BLOCK - 8]
                digests.append(hashlib.sha256(block).digest())
                started.append(cpu_clock())
                rnd.attempted += 1
                client.send(block, timeout=OP_TIMEOUT)
                if got["mismatch"] or got["timeout"]:
                    break
        except (Timeout, NetstackError):
            pass  # the blocks the receiver never verified count as failed
        client.close()
        _join(receiver)
        rnd.close_window(probe, got["last"], got["last_cpu"])
        if got["mismatch"]:
            raise PayloadMismatch(got["mismatch"])
        rnd.failed = rnd.attempted - got["ops"]
        rnd.payload_bytes = got["ops"] * BLOCK
        rnd.ops = rnd.payload_bytes / MIB


class TcpRpc(_TcpWorkload):
    name = "tcp_rpc"
    why = ("64 B request, 512 B reply over one connection, closed loop: "
           "per-packet work (queue hand-offs, per-datagram ARP lookups, pure ACKs)")

    def __init__(self, reply=rpc_reply):
        self.reply = reply

    def drive(self, endpoints, rng, seconds, rnd, probe):
        _listener, client, server = endpoints
        reply = self.reply

        def serve():
            while True:
                try:
                    request = recv_exactly(server, 64, None)
                    if len(request) < 64:
                        return
                    server.send(reply(request))
                except NetstackError:
                    return

        echo_thread = threading.Thread(target=serve, name="bench-rpc-echo", daemon=True)
        echo_thread.start()
        pool = rng.randbytes(65536)
        deadline = rnd.open_window(probe) + seconds
        i = 0
        try:
            while time.perf_counter() < deadline:
                offset = rng.randrange(len(pool) - 56)
                request = i.to_bytes(8, "big") + pool[offset:offset + 56]
                rnd.attempted += 1
                t0 = cpu_clock()
                try:
                    client.send(request, OP_TIMEOUT)
                    response = recv_exactly(client, 512, OP_TIMEOUT)
                except (Timeout, NetstackError):
                    rnd.failed += 1
                    break  # the byte stream is out of step now; end the round
                if response != rpc_reply(request):
                    raise PayloadMismatch(f"tcp_rpc: reply {i} differs from its request x 8")
                rnd.latencies.append(cpu_clock() - t0)
                i += 1
        finally:
            rnd.close_window(probe)
            client.close()
            _join(echo_thread)
        rnd.ops = i
        rnd.payload_bytes = i * (64 + 512)


class UdpFrag(Workload):
    name = "udp_frag"
    why = ("UDP echo of seeded 3000-9000 B datagrams (3-7 IPv4 fragments), closed loop: "
           "fragmentation and reassembly, no TCP code")

    def __init__(self, reply=echo):
        self.reply = reply

    def open(self, a, b):
        return a.udp.bind(CLIENT_PORT), b.udp.bind(PORT)

    def drive(self, endpoints, rng, seconds, rnd, probe):
        client, server = endpoints
        reply = self.reply

        def serve():
            while True:
                try:
                    src, sport, data = server.recv_from()
                    server.send_to(src, sport, reply(data))
                except NetstackError:
                    return

        echo_thread = threading.Thread(target=serve, name="bench-udp-echo", daemon=True)
        echo_thread.start()
        pool = rng.randbytes(65536)
        deadline = rnd.open_window(probe) + seconds
        i = 0
        try:
            while time.perf_counter() < deadline:
                size = rng.randint(3000, 9000)
                offset = rng.randrange(len(pool) - size)
                payload = i.to_bytes(8, "big") + pool[offset:offset + size - 8]
                rnd.attempted += 1
                t0 = time.perf_counter()
                c0 = cpu_clock()
                client.send_to(B_IP, PORT, payload)
                if self._await(client, i, payload, t0):
                    rnd.latencies.append(cpu_clock() - c0)
                    rnd.ops += 1
                    rnd.payload_bytes += 2 * size
                else:
                    rnd.failed += 1
                i += 1
        finally:
            rnd.close_window(probe)
            server.close()
            _join(echo_thread)

    @staticmethod
    def _await(client, i: int, payload: bytes, t0: float) -> bool:
        """Wait for echo i; False on timeout.  Late echoes of earlier ops are skipped."""
        while True:
            left = OP_TIMEOUT - (time.perf_counter() - t0)
            if left <= 0:
                return False
            try:
                _src, _sport, data = client.recv_from(left)
            except Timeout:
                return False
            if len(data) >= 8 and int.from_bytes(data[:8], "big") < i:
                continue
            if data != payload:
                raise PayloadMismatch(f"udp_frag: echo {i} differs from its datagram")
            return True

    def close(self, endpoints):
        client, server = endpoints
        client.close()
        server.close()


WORKLOADS = {w.name: w for w in (TcpBulk(), TcpRpc(), UdpFrag())}


def _merged_counters(*stacks) -> dict:
    total = {}
    for s in stacks:
        for key, n in s.counters.snapshot().items():
            total[key] = total.get(key, 0) + n
    return total


def health_problems(rnd: Round) -> list[str]:
    """Counters that must read 0 on a lossless wire, and leaked tasks."""
    problems = [f"{key} = {n}" for key, n in sorted(rnd.counters.items())
                if n and (".drop." in key or key == "tcp.retransmit")]
    if rnd.tasks_left:
        problems.append(f"stack.tasks_left_after_down = {rnd.tasks_left}")
    return problems


def run_round(workload: Workload, seed: int, index: int, seconds: float,
              probe=None) -> Round:
    """Set up, drive and tear down one round; raises on any wrong byte."""
    probe = probe or NullProbe()
    rng = random.Random(f"{workload.name}:{seed}:{index}")
    profile = link.ImpairmentProfile(seed=rng.randrange(1 << 31))  # zero delay, lossless
    config_a = StackConfig(ip=A_IP, mac=A_MAC, isn_seed=rng.randrange(1 << 32))
    config_b = StackConfig(ip=B_IP, mac=B_MAC, isn_seed=rng.randrange(1 << 32))
    t0 = cpu_clock()
    a, b = stack.linked_stacks(profile, config_a, config_b)
    endpoints = None
    try:
        warm = a.ping(B_IP, count=1, interval=0.0, timeout=OP_TIMEOUT)
        if warm.received != 1:
            raise HealthFailure("the ARP warm-up ping got no reply")
        endpoints = workload.open(a, b)
        rnd = Round(setup_s=cpu_clock() - t0)
        probe.attach((a, b))
        workload.drive(endpoints, rng, seconds, rnd, probe)
        rnd.counters = _merged_counters(a, b)
    finally:
        if endpoints is not None:
            workload.close(endpoints)
        a.down()
        b.down()
    rnd.tasks_left = a.tasks.census() + b.tasks.census()
    problems = health_problems(rnd)
    if problems:
        raise HealthFailure(f"{workload.name}: " + ", ".join(problems))
    return rnd
