"""Benchmark harness sanity: small levels, CSV shape, sane numbers."""

import csv
import math
from types import SimpleNamespace

import pytest

from netstack import bench, tcp
from netstack.csp import Counters


def test_latency_small_levels(tmp_path):
    records = bench.bench_latency([1, 3], pings_each=3, interval=0.05,
                                  delay=0.0005)
    assert [r.concurrent_pingers for r in records] == [1, 3]
    for r in records:
        assert r.loss == 0.0
        assert 0.9 <= r.min_ms <= r.avg_ms <= r.max_ms
        assert r.drops == {}
    out = tmp_path / "latency.csv"
    bench.write_csv(records, str(out))
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["concurrent_pingers", "pings_each", "avg_ms",
                       "min_ms", "max_ms", "loss"]
    assert len(rows) == 3
    assert float(rows[1][2]) == pytest.approx(records[0].avg_ms)


def test_drop_counters_name_the_stack_and_skip_zeros():
    a, b = Counters(), Counters()
    a.incr("link.drop.overflow", 3)
    a.incr("icmp.rx.reply", 7)
    b.incr("udp.drop.full", 0)
    b.incr("ip.drop.not_ours")
    assert bench._drop_counters(a=SimpleNamespace(counters=a),
                                b=SimpleNamespace(counters=b)) == {
        "a:link.drop.overflow": 3, "b:ip.drop.not_ours": 1}


def test_throughput_failure_prints_both_stacks_counters(monkeypatch):
    built_pair = bench._stack_pair

    def pair_with_a_drop(*args, **kwargs):
        a, b = built_pair(*args, **kwargs)
        a.counters.incr("link.drop.overflow")
        return a, b

    recv_exactly = tcp.Connection.recv_exactly

    def corrupting_recv_exactly(self, n, timeout=None):
        data = recv_exactly(self, n, timeout)
        return data if n == 4 else bytes([data[0] ^ 1]) + data[1:]

    monkeypatch.setattr(bench, "_stack_pair", pair_with_a_drop)
    monkeypatch.setattr(tcp.Connection, "recv_exactly", corrupting_recv_exactly)
    with pytest.raises(RuntimeError) as failure:
        bench.bench_throughput([1], bytes_per_client=4000, delay=0.0)
    message = str(failure.value)
    assert message.startswith("stream 0 payload mismatch; counters {")
    assert "'a:link.drop.overflow': 1" in message
    assert "'a:tcp.retransmit': 0" in message
    assert "'b:tcp.retransmit': 0" in message


def test_latency_includes_wire_delay_floor():
    [r] = bench.bench_latency([1], pings_each=4, interval=0.02, delay=0.003)
    # 3ms each way means no round trip can beat 6ms
    assert r.min_ms >= 6.0


def test_throughput_small_levels(tmp_path):
    records = bench.bench_throughput([1, 2], bytes_per_client=40000,
                                     delay=0.001)
    assert [r.clients for r in records] == [1, 2]
    for r in records:
        assert r.wall_time_s > 0
        assert math.isfinite(r.throughput_mbit_s) and r.throughput_mbit_s > 0
        assert {"a:tcp.retransmit", "b:tcp.retransmit"} <= r.counters.keys()
    out = tmp_path / "tput.csv"
    bench.write_csv(records, str(out))
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["clients", "bytes_per_client", "wall_time_s",
                       "throughput_mbit_s"]
    assert int(rows[2][0]) == 2


def test_latency_rerun_same_seed_reports_same_loss():
    kwargs = dict(levels=[1], pings_each=8, interval=0.005, loss=0.25,
                  timeout=0.2, seed=9)
    [first] = bench.bench_latency(**kwargs)
    [second] = bench.bench_latency(**kwargs)
    assert first.loss == second.loss > 0.0


def test_throughput_reruns_land_within_3x():
    runs = [bench.bench_throughput([2], bytes_per_client=30000)[0]
            for _ in range(2)]
    hi = max(r.throughput_mbit_s for r in runs)
    lo = min(r.throughput_mbit_s for r in runs)
    assert hi / lo < 3.0


def test_throughput_rejects_tiny_payload():
    with pytest.raises(ValueError):
        bench.bench_throughput([1], bytes_per_client=2)


def test_write_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        bench.write_csv([], str(tmp_path / "x.csv"))
