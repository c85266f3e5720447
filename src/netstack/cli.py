"""Command-line front end.

Commands that only need a conversation partner (ping, udp-send,
tcp-send, bench) default to a self-contained emulated wire with a peer
stack on the far end, so everything is demonstrable unprivileged.
Passing --config switches to the configured device, which is how the
stack talks to a real network over TAP. Servers (up, udp-echo,
tcp-serve) exist to be reachable from outside, so they require --config.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

from netstack import addr, bench, errors, link, stack
from netstack.config import StackConfig, load_config


def _parse_endpoint(text: str):
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit() or not 0 < int(port) < 65536:
        raise errors.ConfigError(f"expected DST:PORT, got {text!r}")
    return addr.as_ip(host), int(port)


def _private_rig(dst_ip: bytes, delay: float = 0.0005):
    """An emulated wire with our stack on one end and a peer at dst_ip."""
    dst_text = addr.format_ip(dst_ip)
    last = dst_ip[3]
    ours = bytes(dst_ip[:3]) + bytes([1 if last != 1 else 2])
    profile = link.ImpairmentProfile(delay=delay)
    cfg_a = StackConfig(ip=addr.format_ip(ours), mac="02:00:00:00:00:01")
    cfg_b = StackConfig(ip=dst_text, mac="02:00:00:00:00:02")
    return stack.linked_stacks(profile, cfg_a, cfg_b)


def _stack_from_config(path: str) -> stack.Stack:
    config = load_config(path)
    if config.device == "emulated":
        raise errors.ConfigError(
            "device=emulated has no far end to talk to; name a tap device")
    return stack.Stack(config).up()


@contextlib.contextmanager
def _client_stacks(config_path, dst):
    """Yield (stack, peer): the configured stack and no peer, or else the
    private rig with a peer at dst. Both stacks go down on exit."""
    if config_path:
        s, peer = _stack_from_config(config_path), None
    else:
        s, peer = _private_rig(addr.as_ip(dst))
    try:
        yield s, peer
    finally:
        s.down()
        if peer is not None:
            peer.down()


def _run_ping(args) -> int:
    with _client_stacks(args.config, args.dst) as (s, _peer):
        stats = s.ping(args.dst, count=args.count, interval=args.interval,
                       size=args.size)
    print(f"{stats.sent} sent, {stats.received} received, "
          f"{stats.loss * 100:.1f}% loss")
    if stats.received:
        print(f"rtt min/avg/max = {stats.min_ms:.3f}/{stats.avg_ms:.3f}"
              f"/{stats.max_ms:.3f} ms")
    return 0 if stats.received else 1


def _run_udp_send(args) -> int:
    dst_ip, dst_port = _parse_endpoint(args.dst)
    payload = args.message.encode()
    with _client_stacks(args.config, dst_ip) as (s, peer):
        echo_sock = peer.udp.bind(dst_port) if peer is not None else None
        sock = s.udp.bind(0)
        sock.send_to(dst_ip, dst_port, payload)
        print(f"sent {len(payload)} bytes to {args.dst}")
        if echo_sock is not None:
            src_ip, src_port, got = echo_sock.recv_from(timeout=2.0)
            echo_sock.send_to(src_ip, src_port, got)
            _, _, back = sock.recv_from(timeout=2.0)
            print(f"peer echoed {len(back)} bytes: {back.decode(errors='replace')}")
    return 0


def _run_udp_echo(args) -> int:
    s = _stack_from_config(args.config)
    sock = s.udp.bind(args.port)
    print(f"udp echo on {addr.format_ip(s.ip)}:{args.port}")
    try:
        while True:
            try:
                src_ip, src_port, payload = sock.recv_from(timeout=1.0)
            except errors.Timeout:
                continue
            sock.send_to(src_ip, src_port, payload)
    except KeyboardInterrupt:
        pass
    finally:
        s.down()
    return 0


def _run_tcp_serve(args) -> int:
    s = _stack_from_config(args.config)
    listener = s.tcp.listen(args.port)
    print(f"tcp sink on {addr.format_ip(s.ip)}:{args.port}")
    try:
        while True:
            try:
                conn = listener.accept(timeout=1.0)
            except errors.Timeout:
                continue
            total = 0
            while True:
                chunk = conn.recv(timeout=30.0)
                if not chunk:
                    break
                total += len(chunk)
            conn.close()
            print(f"{addr.format_ip(conn.remote[0])}:{conn.remote[1]} "
                  f"sent {total} bytes")
    except KeyboardInterrupt:
        pass
    finally:
        s.down()
    return 0


def _run_tcp_send(args) -> int:
    dst_ip, dst_port = _parse_endpoint(args.dst)
    payload = bytes(i & 0xFF for i in range(args.bytes))
    with _client_stacks(args.config, dst_ip) as (s, peer):
        listener = peer.tcp.listen(dst_port) if peer is not None else None
        started = time.perf_counter()
        conn = s.tcp.connect(dst_ip, dst_port, timeout=10.0)
        conn.send(payload, timeout=60.0)
        conn.close()
        if listener is not None:
            server = listener.accept(timeout=5.0)
            got = server.recv_exactly(args.bytes, timeout=60.0)
            server.close()
            if got != payload:
                print("peer received corrupted bytes", file=sys.stderr)
                return 1
        elapsed = time.perf_counter() - started
        print(f"sent {args.bytes} bytes in {elapsed:.3f}s "
              f"({args.bytes * 8 / elapsed / 1e6:.2f} Mbit/s)")
    return 0


def _run_up(args) -> int:
    s = _stack_from_config(args.config)
    print(f"stack up on {s.config.device} at {addr.format_ip(s.ip)}")
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        s.down()
    print("stack down")
    return 0


def _parse_levels(text: str) -> list:
    try:
        levels = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise errors.ConfigError(f"levels must be integers, got {text!r}")
    if not levels or any(level < 1 for level in levels):
        raise errors.ConfigError(f"levels must be positive, got {text!r}")
    return levels


def _print_latency(r: bench.LatencyRecord) -> None:
    line = (f"{r.concurrent_pingers} pingers: avg {r.avg_ms:.3f} ms, "
            f"loss {r.loss * 100:.1f}%")
    if r.drops:
        line += ", drops " + " ".join(f"{key}={n}" for key, n in r.drops.items())
    print(line)


def _run_bench(args) -> int:
    levels = _parse_levels(args.levels)
    if args.mode == "latency":
        records = bench.bench_latency(
            levels, pings_each=args.pings_each, interval=args.interval,
            size=args.size, on_record=_print_latency)
    else:
        records = bench.bench_throughput(
            levels, bytes_per_client=args.bytes,
            on_record=lambda r: print(f"{r.clients} clients: "
                                      f"{r.throughput_mbit_s:.2f} Mbit/s"))
    bench.write_csv(records, args.out)
    print(f"wrote {len(records)} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netstack", description="user-space TCP/IP stack tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("up", help="run a configured stack until interrupted")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_run_up)

    p = sub.add_parser("ping", help="ICMP echo round trips")
    p.add_argument("dst")
    p.add_argument("-c", "--count", type=int, default=4)
    p.add_argument("-i", "--interval", type=float, default=1.0)
    p.add_argument("-s", "--size", type=int, default=56)
    p.add_argument("--config")
    p.set_defaults(fn=_run_ping)

    p = sub.add_parser("udp-echo", help="echo every datagram back")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_run_udp_echo)

    p = sub.add_parser("udp-send", help="send one datagram")
    p.add_argument("dst", metavar="DST:PORT")
    p.add_argument("message")
    p.add_argument("--config")
    p.set_defaults(fn=_run_udp_send)

    p = sub.add_parser("tcp-serve", help="accept connections and count bytes")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_run_tcp_serve)

    p = sub.add_parser("tcp-send", help="stream patterned bytes")
    p.add_argument("dst", metavar="DST:PORT")
    p.add_argument("--bytes", type=int, default=4096)
    p.add_argument("--config")
    p.set_defaults(fn=_run_tcp_send)

    p = sub.add_parser("bench", help="scaling benchmarks over the emulated wire")
    bench_sub = p.add_subparsers(dest="mode", required=True)
    lat = bench_sub.add_parser("latency")
    lat.add_argument("--levels", required=True, help="e.g. 1,10,100,1000")
    lat.add_argument("--out", required=True)
    lat.add_argument("--pings-each", type=int, default=50)
    lat.add_argument("--interval", type=float, default=0.01)
    lat.add_argument("--size", type=int, default=56)
    lat.set_defaults(fn=_run_bench)
    thr = bench_sub.add_parser("throughput")
    thr.add_argument("--levels", required=True, help="e.g. 1,10,50,100")
    thr.add_argument("--out", required=True)
    thr.add_argument("--bytes", type=int, default=4096)
    thr.set_defaults(fn=_run_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except errors.ConfigError as exc:
        print(f"netstack: {exc}", file=sys.stderr)
        return 2
    except errors.NetstackError as exc:
        print(f"netstack: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"netstack: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
