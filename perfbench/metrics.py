"""Metric definitions and the traced run that computes the per-layer ones.

END_TO_END and PER_LAYER are the names, units and directions that
BENCHMARK.json lists; each per-layer metric's note says which end-to-end
metric, on which workload, it is expected to move.  "Per op" means per
request/reply on tcp_rpc and udp_frag, and per MiB on tcp_bulk.  A
`_us` metric is the mean self time of one call (its duration minus the
wrapped calls it made); a `wait_us`, `blocked_us` or `_ms` metric is
the mean whole duration.  Span durations are wall clock; the end-to-end
rates and latencies are in reference seconds (refclock.py).
"""

from __future__ import annotations

import bisect
import json
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    note: str  # per-layer: which end-to-end metric it should move, on which workload


END_TO_END = (
    Metric("setup_s", "s", "lower",
           "median time to bring both stacks up, warm ARP and open the connection or sockets, "
           "in reference seconds"),
    Metric("goodput_mbit_per_ref_s", "Mbit/ref_s", "higher",
           "verified payload bits per reference second, both directions, median over rounds"),
    Metric("ops_per_ref_s", "1/ref_s", "higher",
           "verified request/reply pairs (MiB on tcp_bulk) per reference second, "
           "median over rounds"),
    Metric("latency_p50_ref_ms", "ref_ms", "lower",
           "median request-to-verified-reply time in reference ms "
           "(send-to-verified 256 KiB block on tcp_bulk)"),
    Metric("delivered_ratio", "ratio", "higher",
           "verified operations over attempted ones; 1 - failed_ratio"),
    Metric("peak_rss_mib", "MiB", "lower", "peak resident memory of the run"),
)

_TCP = "tcp_bulk goodput_mbit_per_ref_s, tcp_rpc ops_per_ref_s and latency_p50_ref_ms; not udp_frag"
_REASM = "udp_frag ops_per_ref_s and latency_p50_ref_ms; not the TCP workloads"
_CODEC = "tcp_bulk goodput_mbit_per_ref_s and udp_frag ops_per_ref_s; tcp_rpc barely"
_UNITS = ("ethernet", "ipv4", "udp", "tcp")
_QUEUES = ("eth", "ipv4", "ipv4_dispatch", "tcp", "udp")
LAYERS = ("link", "wire", "csp", "ethernet", "arp", "ipv4", "udp", "tcp")

PER_LAYER = (
    Metric("link.frames_per_op", "frames/op", "lower",
           "per-packet floor on all workloads; tcp_rpc latency_p50_ref_ms most"),
    Metric("link.write_us", "us", "lower", "tcp_rpc latency_p50_ref_ms most"),
    Metric("link.reader_idle_share", "share", "higher",
           "share of the window the two link readers wait; headroom on every workload"),
    Metric("wire.checksum_us", "us", "lower", _CODEC),
    Metric("wire.checksum_bytes_per_payload_byte", "bytes/byte", "lower", _CODEC),
    *(Metric(f"wire.encode_us.{u}", "us", "lower", _CODEC) for u in _UNITS),
    *(Metric(f"wire.decode_us.{u}", "us", "lower", _CODEC) for u in _UNITS),
    Metric("csp.queue_sends_per_frame", "sends/frame", "lower", "tcp_rpc latency_p50_ref_ms"),
    Metric("csp.send_blocked_us", "us", "lower", "backpressure; tcp_bulk goodput_mbit_per_ref_s"),
    Metric("csp.recv_wait_us", "us", "lower", "tcp_rpc latency_p50_ref_ms"),
    Metric("csp.tasks_spawned_per_op", "tasks/op", "lower", "tcp_bulk goodput_mbit_per_ref_s"),
    Metric("csp.live_tasks_peak", "count", "lower", "peak_rss_mib on every workload"),
    *(Metric(f"csp.queue_depth_peak.{q}", "count", "lower",
             "latency_p50_ref_ms where that queue fills") for q in _QUEUES),
    Metric("ethernet.send_us", "us", "lower",
           "all workloads a little; tcp_rpc latency_p50_ref_ms most"),
    Metric("ethernet.drops", "count", "lower", "must be 0; any workload"),
    Metric("arp.resolve_calls_per_frame", "calls/frame", "lower",
           "tcp_rpc latency_p50_ref_ms and tcp_bulk goodput_mbit_per_ref_s; udp_frag less"),
    Metric("arp.resolve_us", "us", "lower",
           "tcp_rpc latency_p50_ref_ms and tcp_bulk goodput_mbit_per_ref_s; udp_frag less"),
    Metric("arp.requests", "count", "lower", "0 after warm-up; setup_s if it moves"),
    Metric("ipv4.send_us", "us", "lower", "all workloads; udp_frag ops_per_ref_s most"),
    Metric("ipv4.fragments_per_datagram", "frags/datagram", "lower", _REASM),
    Metric("ipv4.assemblers_spawned_per_op", "tasks/op", "lower", _REASM),
    Metric("ipv4.reassembly_completed", "count", "higher", _REASM),
    Metric("ipv4.reassembly_timeouts", "count", "lower", "must be 0; udp_frag"),
    Metric("ipv4.drops", "count", "lower", "must be 0; any workload"),
    Metric("udp.send_to_us", "us", "lower", "udp_frag only"),
    Metric("udp.recv_from_wait_us", "us", "lower", "udp_frag latency_p50_ref_ms only"),
    Metric("udp.drops", "count", "lower", "must be 0; udp_frag only"),
    Metric("tcp.send_us", "us", "lower", _TCP + "; includes waits for send-buffer room"),
    Metric("tcp.recv_wait_us", "us", "lower", _TCP),
    Metric("tcp.data_segments_per_op", "segments/op", "lower", _TCP),
    Metric("tcp.pure_acks_per_data_segment", "acks/segment", "lower", _TCP),
    Metric("tcp.rtx_actors_per_data_segment", "tasks/segment", "lower", _TCP),
    Metric("tcp.retransmits", "count", "lower", "must be 0; a non-zero value fails the run"),
    Metric("tcp.drops", "count", "lower", "must be 0; TCP workloads"),
    Metric("tcp.connect_ms", "ms", "lower", "setup_s on the TCP workloads"),
    Metric("stack.up_ms", "ms", "lower", "setup_s on every workload"),
    Metric("stack.down_ms", "ms", "lower", "run length outside the window; every workload"),
    Metric("stack.tasks_left_after_down", "count", "lower", "must be 0; fails the run otherwise"),
    *(Metric(f"{layer}.self_us_per_op", "us/op", "lower",
             "self time of the layer's wrapped calls, waits excluded; its workloads above")
      for layer in LAYERS),
    Metric("latency_p99_ref_ms", "ref_ms", "lower",
           "untraced tail latency in reference ms; too noisy across runs to gate"),
    Metric("trace.overhead_rate_share", "share", "lower",
           "1 - traced/untraced ops_per_ref_s"),
    Metric("trace.overhead_latency_share", "share", "lower",
           "traced/untraced latency_p50_ref_ms - 1"),
)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)
    return ordered[max(1, int(rank)) - 1]


class _Stat:
    __slots__ = ("count", "total", "self_total")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_total = 0.0


def layer_values(tracer, rounds) -> dict:
    """Per-layer metrics from the traced rounds' spans, peaks and counters."""
    from perfbench.trace import WAIT_SPANS

    windows = sorted(tracer.windows)
    opens = [w[0] for w in windows]

    def in_window(t: float) -> bool:
        i = bisect.bisect_right(opens, t) - 1
        return i >= 0 and t <= windows[i][1]

    everywhere, inside = {}, {}
    checksum_bytes = 0
    segments = {"data": 0, "pure_ack": 0, "control": 0}
    spawned = {}
    tasks_left = 0
    reader_wait = 0.0
    for name, start, end, _tid, _sid, _parent, child, note in tracer.spans:
        if name == "link.read":  # readers block across window edges: clip them
            for w_open, w_close in windows:
                reader_wait += max(0.0, min(end, w_close) - max(start, w_open))
        elif name == "csp.join_all" and note is not None:
            tasks_left += note
        stat = everywhere.get(name) or everywhere.setdefault(name, _Stat())
        stat.count += 1
        stat.total += end - start
        if not in_window(start):
            continue
        stat = inside.get(name) or inside.setdefault(name, _Stat())
        stat.count += 1
        stat.total += end - start
        stat.self_total += end - start - child
        if name == "wire.checksum":
            checksum_bytes += note
        elif name == "wire.encode.tcp":
            segments[note] += 1
        elif name == "csp.spawn":
            spawned[note] = spawned.get(note, 0) + 1

    empty = _Stat()
    ops = sum(r.ops for r in rounds)
    payload = sum(r.payload_bytes for r in rounds)
    window_s = sum(w_close - w_open for w_open, w_close in windows)
    frames = inside.get("link.write", empty).count

    def ratio(a, b):
        return a / b if b else 0.0

    def self_us(name):
        s = inside.get(name, empty)
        return ratio(s.self_total, s.count) * 1e6

    def wait_us(name):
        s = inside.get(name, empty)
        return ratio(s.total, s.count) * 1e6

    def setup_ms(name):
        s = everywhere.get(name, empty)
        return ratio(s.total, s.count) * 1e3

    counted = tracer.counter_deltas

    def drops(*prefixes):
        return sum(n for r in rounds for key, n in r.counters.items()
                   if key.startswith(prefixes) and ".drop." in key)

    data = segments["data"]
    values = {
        "link.frames_per_op": ratio(frames, ops),
        "link.write_us": self_us("link.write"),
        "link.reader_idle_share": ratio(reader_wait, 2 * window_s),
        "wire.checksum_us": self_us("wire.checksum"),
        "wire.checksum_bytes_per_payload_byte": ratio(checksum_bytes, payload),
        "csp.queue_sends_per_frame": ratio(
            inside.get("csp.send", empty).count + inside.get("csp.send_nowait", empty).count,
            frames),
        "csp.send_blocked_us": wait_us("csp.send"),
        "csp.recv_wait_us": wait_us("csp.recv"),
        "csp.tasks_spawned_per_op": ratio(inside.get("csp.spawn", empty).count, ops),
        "csp.live_tasks_peak": tracer.live_tasks_peak,
        "ethernet.send_us": self_us("ethernet.send"),
        "ethernet.drops": drops("link.", "eth."),
        "arp.resolve_calls_per_frame": ratio(inside.get("arp.resolve", empty).count, frames),
        "arp.resolve_us": wait_us("arp.resolve"),
        "arp.requests": counted.get("arp.tx.request", 0),
        "ipv4.send_us": self_us("ipv4.send"),
        "ipv4.fragments_per_datagram": ratio(inside.get("wire.encode.ipv4", empty).count,
                                             inside.get("ipv4.send", empty).count),
        "ipv4.assemblers_spawned_per_op": ratio(spawned.get("ip-assembler", 0), ops),
        "ipv4.reassembly_completed": counted.get("ip.reassembly.completed", 0),
        "ipv4.reassembly_timeouts": counted.get("ip.reassembly.timeout", 0),
        "ipv4.drops": drops("ip."),
        "udp.send_to_us": self_us("udp.send_to"),
        "udp.recv_from_wait_us": wait_us("udp.recv_from"),
        "udp.drops": drops("udp."),
        "tcp.send_us": self_us("tcp.send"),
        "tcp.recv_wait_us": wait_us("tcp.recv"),
        "tcp.data_segments_per_op": ratio(data, ops),
        "tcp.pure_acks_per_data_segment": ratio(segments["pure_ack"], data),
        "tcp.rtx_actors_per_data_segment": ratio(spawned.get("tcp-rtx", 0), data),
        "tcp.retransmits": counted.get("tcp.retransmit", 0),
        "tcp.drops": drops("tcp."),
        "tcp.connect_ms": setup_ms("tcp.connect"),
        "stack.up_ms": setup_ms("stack.up"),
        "stack.down_ms": setup_ms("stack.down"),
        "stack.tasks_left_after_down": tasks_left,
    }
    for unit in _UNITS:
        values[f"wire.encode_us.{unit}"] = self_us(f"wire.encode.{unit}")
        values[f"wire.decode_us.{unit}"] = self_us(f"wire.decode.{unit}")
    for queue in _QUEUES:
        values[f"csp.queue_depth_peak.{queue}"] = tracer.queue_peak[queue]
    for layer in LAYERS:
        busy = sum(s.self_total for name, s in inside.items()
                   if name.split(".")[0] == layer and name not in WAIT_SPANS)
        values[f"{layer}.self_us_per_op"] = ratio(busy, ops) * 1e6
    return values


def traced_run(workload, seed: int, run_rounds, end_to_end, out_dir):
    """The same rounds untraced, then traced; spans and the table go to out_dir."""
    from perfbench.trace import Tracer

    untraced = run_rounds()
    plain = end_to_end(untraced)
    tracer = Tracer()
    with tracer:
        traced = run_rounds(tracer)
    seen = end_to_end(traced)
    values = layer_values(tracer, traced)
    from perfbench.workloads import ref_latencies

    latencies = ref_latencies(untraced)
    values["latency_p99_ref_ms"] = percentile(latencies, 99) * 1000.0
    values["trace.overhead_rate_share"] = 1.0 - seen["ops_per_ref_s"] / plain["ops_per_ref_s"]
    values["trace.overhead_latency_share"] = seen["latency_p50_ref_ms"] / plain["latency_p50_ref_ms"] - 1.0

    print(f"# untraced vs traced ({len(latencies)} untraced latency samples, "
          f"{len(tracer.spans)} spans):")
    for m in END_TO_END:
        print(f"#   {m.name:<16} {plain[m.name]:>12.6g} -> {seen[m.name]:>12.6g} {m.unit}")
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{workload.name}.csv.gz")
    report = {
        "workload": workload.name, "seed": seed,
        "untraced": plain, "traced": seen,
        "per_layer": [dict(asdict(m), value=values[m.name]) for m in PER_LAYER],
    }
    (out_dir / f"layers-{workload.name}.json").write_text(json.dumps(report, indent=1))
    return values, untraced + traced
