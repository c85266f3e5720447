"""Run one netstack benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tcp_rpc --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the stack is imported from ./src.  The
process pins itself to one core, times its windows on its own CPU clock
and counts that time in reference seconds (perfbench/refclock.py), so
neither other processes' load nor the host core's changing speed shows
in the numbers.  The timed window is split over several rounds, each with
freshly set-up stacks, and the last line printed is one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics; --trace 1 runs the same rounds untraced and then
traced, and reports the per-layer metrics and the tracing overhead.
Exit codes: 0 success, 1 wrong output or an unhealthy stack, 2 usage or
environment error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # spans and per-layer tables of traced runs
ROUNDS = 40
TRACE_ROUNDS = 4  # per half of a traced run
TRACE_SECONDS = 2.0  # cap on each half: a traced second of tcp_bulk holds ~200k spans
WIRE = "in-process emulated wire, zero delay, lossless, MTU 1500"


def _import_stack() -> str | None:
    """Put ./src first on the path; the benchmark never measures another copy."""
    if not (SRC / "netstack" / "__init__.py").is_file():
        return f"no netstack sources under {SRC}"
    for entry in (str(ROOT), str(SRC)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import netstack
    if Path(netstack.__file__).resolve().parent != SRC / "netstack":
        return f"imported netstack from {netstack.__file__}, not from {SRC}"
    return None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def pinned_to_one_core():
    """Run the calling thread, and every thread it starts, on one core.

    The core is the last one allowed.  The stack's tasks take turns under
    the GIL, so a second core adds cross-core wake-ups, not speed; on one
    core the process's CPU clock counts exactly the time the stack ran.
    """
    allowed = os.sched_getaffinity(0)
    core = max(allowed)
    os.sched_setaffinity(0, {core})
    try:
        yield core
    finally:
        os.sched_setaffinity(0, allowed)


def end_to_end(rounds) -> dict:
    """The gated metrics: medians over rounds, latency pooled over every op."""
    from perfbench.workloads import ref_latencies
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return {
        "setup_s": statistics.median(r.setup_s * r.ref_per_cpu_s for r in rounds),
        "goodput_mbit_per_ref_s": statistics.median(
            r.payload_bytes * 8 / r.ref_elapsed / 1e6 for r in rounds),
        "ops_per_ref_s": statistics.median(r.ops / r.ref_elapsed for r in rounds),
        "latency_p50_ref_ms": statistics.median(ref_latencies(rounds)) * 1000.0,
        "delivered_ratio": 1.0 - failed / attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_rounds(workload, seed: int, seconds: float, rounds: int, probe=None) -> list:
    """Rounds of seconds/rounds each until their timed windows add up to seconds.

    A tcp_bulk window runs past its deadline until the last MiB it sent is
    verified, so that workload runs fewer, slightly longer rounds.  One
    round of the same length runs first and is not reported: it warms the
    interpreter, the allocator and the imports the first timed round
    would otherwise pay for.
    """
    from perfbench import refclock
    from perfbench.workloads import run_round
    run_round(workload, seed, -1, seconds / rounds)
    done, measured = [], 0.0
    before = refclock.burst()
    while measured < seconds:
        rnd = run_round(workload, seed, len(done), seconds / rounds, probe)
        after = refclock.burst()
        rnd.ref_per_cpu_s = refclock.ref_per_cpu_s(before, after)
        before = after
        done.append(rnd)
        measured += rnd.elapsed
    return done


def _measure(args, workload):
    """The rounds of one run, and the metrics --trace selects."""
    from perfbench import metrics

    if args.trace:
        half = min(args.seconds / 2, TRACE_SECONDS)
        values, rounds = metrics.traced_run(
            workload, args.seed, lambda probe=None: run_rounds(
                workload, args.seed, half, TRACE_ROUNDS, probe), end_to_end, OUT)
        return values, rounds, metrics.PER_LAYER
    rounds = run_rounds(workload, args.seed, args.seconds, ROUNDS)
    return end_to_end(rounds), rounds, metrics.END_TO_END


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    problem = _import_stack()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from perfbench.workloads import (FLOWS, GENERATOR_THREADS, WORKLOADS, HealthFailure,
                                     PayloadMismatch)

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    cores = nproc()
    if GENERATOR_THREADS > cores or FLOWS > cores:
        print(f"error: the load needs {GENERATOR_THREADS} generator threads and "
              f"{FLOWS} connection, but nproc is {cores}", file=sys.stderr)
        return 2
    try:
        with pinned_to_one_core() as core:
            print(f"# workload={workload.name} seed={args.seed} nproc={cores} "
                  f"python={platform.python_version()} wire=\"{WIRE}\"")
            print(f"# load: closed loop, {GENERATOR_THREADS} generator threads, {FLOWS} flow; "
                  f"pinned to core {core}, timed on the process CPU clock")
            values, rounds, specs = _measure(args, workload)
    except (PayloadMismatch, HealthFailure) as e:
        print(f"FAILED: {e}", file=sys.stderr)
        return 1
    samples = sum(len(r.latencies) for r in rounds)
    wall = sum(r.elapsed for r in rounds)
    cpu = sum(r.cpu_elapsed for r in rounds)
    ref = sum(r.ref_elapsed for r in rounds)
    ops = sum(r.ops for r in rounds)
    print(f"# not gated: {ops / wall:.4g} ops per wall second, {ops / cpu:.4g} per CPU second; "
          f"the process ran {cpu / wall:.3f} of the window, a CPU second was "
          f"{ref / cpu:.3f} reference seconds")
    for spec in specs:
        note = f"  (n={samples})" if spec.name.startswith("latency_") and not args.trace else ""
        print(f"{spec.name:<42} {values[spec.name]:>14.6g} {spec.unit}{note}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {s.name: {"value": values[s.name], "unit": s.unit} for s in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
