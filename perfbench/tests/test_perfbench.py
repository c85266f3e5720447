"""Smoke tests of the benchmark itself: tiny runs, metric names, failure paths.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import metrics, run, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    return result


def _corrupt(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 0x01])


def test_benchmark_json_lists_the_code_definitions():
    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == [n for n in NAMES if n in listed] and len(listed) >= 2
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        n: workloads.WORKLOADS[n].why for n in listed}
    for key, defined in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in SPEC[key]]
        assert listed == [(m.name, m.unit, m.better) for m in defined]
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= SPEC["end_to_end"][0].items()


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                            "--trace", "0"))
    assert result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_smoke_run_prints_every_per_layer_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                            "--trace", "1"))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["stack.tasks_left_after_down"] == 0
    assert values["tcp.retransmits"] == 0
    assert values["link.frames_per_op"] > 0


@pytest.mark.parametrize("workload", [workloads.TcpRpc(reply=lambda r: _corrupt(r * 8)),
                                      workloads.UdpFrag(reply=_corrupt)],
                         ids=["tcp_rpc", "udp_frag"])
def test_corrupted_reply_fails_the_run(workload, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, workload.name, workload)
    code = run.main(["--workload", workload.name, "--seed", "7", "--seconds", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "differs" in err
    assert '"correct"' not in out


def test_a_nonzero_drop_counter_is_named():
    rnd = workloads.Round(setup_s=0.1, counters={"tcp.retransmit": 2, "ip.drop.ttl": 1,
                                                 "arp.tx.request": 1}, tasks_left=3)
    assert workloads.health_problems(rnd) == [
        "ip.drop.ttl = 1", "tcp.retransmit = 2", "stack.tasks_left_after_down = 3"]


def test_reference_seconds_follow_the_core_speed():
    from perfbench import refclock

    assert refclock.burst() > 0
    fast = refclock.ITERATIONS / refclock.ITERATIONS_PER_REF_S  # a burst at nominal speed
    assert refclock.ref_per_cpu_s(fast, fast) == pytest.approx(1.0)
    # on a core running at half speed, a CPU second does half a reference second's work
    assert refclock.ref_per_cpu_s(fast, 3 * fast) == pytest.approx(0.5)
    rnd = workloads.Round(setup_s=0.1, cpu_open=2.0, cpu_close=3.0, ref_per_cpu_s=0.5)
    assert rnd.ref_elapsed == pytest.approx(0.5)


def test_tracer_restores_every_patched_attribute():
    from netstack import csp, wire
    from perfbench.trace import Tracer

    before = (csp.MessageQueue.send, wire.internet_checksum, wire.TcpSegment.__dict__["decode"])
    with Tracer():
        assert wire.internet_checksum is not before[1]
    assert (csp.MessageQueue.send, wire.internet_checksum,
            wire.TcpSegment.__dict__["decode"]) == before


def test_without_the_sources_the_run_fails_quietly(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "tcp_rpc", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
