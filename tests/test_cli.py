"""CLI behaviour: exit codes, output shapes, emulated-wire demos."""

import csv

import pytest

from netstack import bench, cli


def test_ping_demo_prints_stats(capsys):
    code = cli.main(["ping", "10.0.0.9", "-c", "3", "-i", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "3 sent, 3 received, 0.0% loss" in out
    assert "rtt min/avg/max" in out


def test_udp_send_demo_echoes(capsys):
    code = cli.main(["udp-send", "10.0.0.5:2000", "payload text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sent 12 bytes" in out
    assert "peer echoed 12 bytes: payload text" in out


def test_tcp_send_demo_reports_rate(capsys):
    code = cli.main(["tcp-send", "10.0.0.7:4000", "--bytes", "10000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sent 10000 bytes" in out and "Mbit/s" in out


def test_bench_latency_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "lat.csv"
    code = cli.main(["bench", "latency", "--levels", "1,2",
                     "--pings-each", "2", "--interval", "0.01",
                     "--out", str(out_file)])
    assert code == 0
    with open(out_file) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["concurrent_pingers", "pings_each", "avg_ms",
                       "min_ms", "max_ms", "loss"]
    assert len(rows) == 3
    assert "wrote 2 rows" in capsys.readouterr().out


def test_bench_latency_prints_drop_counters(tmp_path, capsys, monkeypatch):
    lossy = bench.LatencyRecord(2, 2, 1.0, 0.5, 1.5, 0.25,
                                drops={"a:link.drop.overflow": 3,
                                       "b:udp.drop.full": 1})
    clean = bench.LatencyRecord(1, 2, 1.0, 0.5, 1.5, 0.0)

    def fake_bench_latency(levels, on_record, **_kwargs):
        for record in (clean, lossy):
            on_record(record)
        return [clean, lossy]

    monkeypatch.setattr(bench, "bench_latency", fake_bench_latency)
    out_file = tmp_path / "lat.csv"
    assert cli.main(["bench", "latency", "--levels", "1,2",
                     "--out", str(out_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1 pingers: avg 1.000 ms, loss 0.0%"
    assert lines[1] == ("2 pingers: avg 1.000 ms, loss 25.0%, "
                        "drops a:link.drop.overflow=3 b:udp.drop.full=1")
    with open(out_file) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["concurrent_pingers", "pings_each", "avg_ms",
                       "min_ms", "max_ms", "loss"]
    assert len(rows) == 3


def test_bench_throughput_writes_csv(tmp_path):
    out_file = tmp_path / "thr.csv"
    code = cli.main(["bench", "throughput", "--levels", "1",
                     "--bytes", "4096", "--out", str(out_file)])
    assert code == 0
    with open(out_file) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["clients", "bytes_per_client", "wall_time_s",
                       "throughput_mbit_s"]
    assert int(rows[1][1]) == 4096


def test_missing_config_file_is_usage_error(capsys):
    code = cli.main(["up", "--config", "/no/such/file"])
    assert code == 2
    assert "netstack:" in capsys.readouterr().err


def test_emulated_device_cannot_go_up(tmp_path, capsys):
    cfg = tmp_path / "stack.conf"
    cfg.write_text("device=emulated\nip=10.0.0.1\nmac=02:00:00:00:00:01\n")
    code = cli.main(["up", "--config", str(cfg)])
    assert code == 2


def test_server_commands_require_config():
    with pytest.raises(SystemExit) as exc:
        cli.main(["udp-echo", "--port", "7"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["tcp-serve", "--port", "7"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ping", "10.0.0.2", "--bogus"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_bad_destination_is_usage_error(capsys):
    assert cli.main(["ping", "not-an-ip", "-c", "1"]) == 2
    assert cli.main(["udp-send", "no-port-here", "hi"]) == 2
    assert cli.main(["tcp-send", "10.0.0.2:notaport", "--bytes", "8"]) == 2


def test_bad_levels_is_usage_error(tmp_path):
    assert cli.main(["bench", "latency", "--levels", "1,zero",
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["bench", "throughput", "--levels", "0",
                     "--out", str(tmp_path / "y.csv")]) == 2
