"""Latency and throughput scaling runs over an emulated wire.

Both benches build a fresh stack pair per load level so levels never
contaminate each other. The wire gets a small propagation delay: it puts
a floor under every round trip, so measured scaling reflects how the
stack multiplexes concurrent work instead of raw interpreter speed.
"""

from __future__ import annotations

import csv
import random
import threading
import time
from dataclasses import dataclass, field, fields

from netstack import link, stack
from netstack.config import StackConfig

A_IP, A_MAC = "10.0.0.1", "02:00:00:00:00:01"
B_IP, B_MAC = "10.0.0.2", "02:00:00:00:00:02"


@dataclass
class LatencyRecord:
    concurrent_pingers: int
    pings_each: int
    avg_ms: float
    min_ms: float
    max_ms: float
    loss: float
    # non-zero *.drop.* counters of both stacks, to tell what lost a reply;
    # a diagnostic, so it stays out of the CSV
    drops: dict = field(default_factory=dict, metadata={"csv": False})


@dataclass
class ThroughputRecord:
    clients: int
    bytes_per_client: int
    wall_time_s: float
    throughput_mbit_s: float
    # both stacks' non-zero *.drop.* counters and tcp.retransmit, read
    # before down(); a diagnostic, so it stays out of the CSV
    counters: dict = field(default_factory=dict, metadata={"csv": False})


def _stack_pair(profile, a_over: dict = None, b_over: dict = None):
    cfg_a = StackConfig(ip=A_IP, mac=A_MAC, **(a_over or {}))
    cfg_b = StackConfig(ip=B_IP, mac=B_MAC, **(b_over or {}))
    return stack.linked_stacks(profile, cfg_a, cfg_b)


def bench_latency(levels, pings_each: int = 50, interval: float = 0.01,
                  size: int = 56, loss: float = 0.0, delay: float = 0.0005,
                  timeout: float = 5.0, seed: int = 1,
                  on_record=None) -> list[LatencyRecord]:
    """Ping round-trip times as the number of concurrent sessions grows."""
    records = []
    for level in levels:
        profile = link.ImpairmentProfile(loss_rate=loss, delay=delay, seed=seed)
        a, b = _stack_pair(profile)
        try:
            a.ping(B_IP, count=1, interval=0.0, timeout=2.0)  # warm the ARP path
            rng = random.Random(seed + level)
            offsets = [rng.uniform(0.0, interval) for _ in range(level)]
            results = [None] * level
            gate = threading.Barrier(level + 1)

            def pinger(i):
                gate.wait()
                time.sleep(offsets[i])  # desynchronize the send bursts
                results[i] = a.icmp.ping(B_IP, count=pings_each, size=size,
                                         interval=interval, timeout=timeout)
            threads = [threading.Thread(target=pinger, args=(i,), daemon=True)
                       for i in range(level)]
            for t in threads:
                t.start()
            gate.wait()
            for t in threads:
                t.join()
            drops = _drop_counters(a=a, b=b)
        finally:
            a.down()
            b.down()
        rtts = [ms for r in results for ms in r.rtts_ms]
        sent = sum(r.sent for r in results)
        received = sum(r.received for r in results)
        record = LatencyRecord(
            concurrent_pingers=level, pings_each=pings_each,
            avg_ms=sum(rtts) / len(rtts) if rtts else float("nan"),
            min_ms=min(rtts) if rtts else float("nan"),
            max_ms=max(rtts) if rtts else float("nan"),
            loss=1.0 - received / sent if sent else 0.0, drops=drops)
        records.append(record)
        if on_record:
            on_record(record)
    return records


def _drop_counters(**stacks) -> dict:
    """Every non-zero *.drop.* counter, keyed "<stack>:<counter>"."""
    return {f"{name}:{key}": n
            for name, s in stacks.items()
            for key, n in sorted(s.counters.snapshot().items())
            if ".drop." in key and n}


def _client_payload(index: int, size: int) -> bytes:
    head = index.to_bytes(4, "big")
    return head + random.Random(1000 + index).randbytes(size - 4)


def bench_throughput(levels, bytes_per_client: int = 4096,
                     delay: float = 0.004, window_segments: int = 2,
                     seed: int = 1, on_record=None) -> list[ThroughputRecord]:
    """Aggregate transfer rate as the number of concurrent streams grows.

    The deliberately small send window keeps a single stream well under
    the machine's ceiling, which is what lets concurrency show up as
    extra throughput rather than as queueing on a saturated core.
    """
    if bytes_per_client < 4:
        raise ValueError("bytes_per_client must be at least 4")
    records = []
    for level in levels:
        over = {"tcp_window_segments": window_segments}
        profile = link.ImpairmentProfile(delay=delay, seed=seed)
        a, b = _stack_pair(profile, a_over=dict(over), b_over=dict(over))
        try:
            a.ping(B_IP, count=1, interval=0.0, timeout=2.0)
            listener = b.tcp.listen(9000, backlog=max(16, 2 * level))
            finish_times = [None] * level
            failures = []

            def serve(i, conn):
                expected = None
                head = conn.recv_exactly(4, timeout=60.0)
                if len(head) == 4:
                    expected = _client_payload(int.from_bytes(head, "big"),
                                               bytes_per_client)
                    body = conn.recv_exactly(bytes_per_client - 4, timeout=60.0)
                if expected is None or head + body != expected:
                    failures.append(f"stream {i} payload mismatch")
                finish_times[i] = time.perf_counter()
                conn.close()

            def acceptor():
                for i in range(level):
                    conn = listener.accept(timeout=30.0)
                    threading.Thread(target=serve, args=(i, conn),
                                     daemon=True).start()

            accept_thread = threading.Thread(target=acceptor, daemon=True)
            accept_thread.start()

            def client(i):
                conn = a.tcp.connect(B_IP, 9000, timeout=30.0)
                conn.send(_client_payload(i, bytes_per_client), timeout=120.0)
                conn.close()

            start = time.perf_counter()
            threads = [threading.Thread(target=client, args=(i,), daemon=True)
                       for i in range(level)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            accept_thread.join(timeout=60.0)
            deadline = time.monotonic() + 120.0
            while any(ft is None for ft in finish_times):
                if time.monotonic() > deadline:
                    failures.append("transfer never completed")
                    break
                time.sleep(0.005)
            counters = _drop_counters(a=a, b=b)
            for name, s in (("a", a), ("b", b)):
                counters[f"{name}:tcp.retransmit"] = s.counters.get("tcp.retransmit")
        finally:
            a.down()
            b.down()
        if failures:
            raise RuntimeError(f"{'; '.join(failures)}; counters {counters}")
        wall = max(finish_times) - start
        total_bits = 8 * bytes_per_client * level
        record = ThroughputRecord(
            clients=level, bytes_per_client=bytes_per_client,
            wall_time_s=wall, throughput_mbit_s=total_bits / wall / 1e6,
            counters=counters)
        records.append(record)
        if on_record:
            on_record(record)
    return records


def write_csv(records, path: str) -> None:
    """One row per record; the header comes from the record's fields."""
    if not records:
        raise ValueError("nothing to write")
    names = [f.name for f in fields(records[0]) if f.metadata.get("csv", True)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for record in records:
            writer.writerow([getattr(record, n) for n in names])
