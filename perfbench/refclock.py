"""Reference seconds: CPU time corrected for the host core's speed.

A shared host's core does not run at one speed.  Whether its hyperthread
sibling is busy, its clock and its caches change from one stretch of
seconds to the next, and a fixed pure-Python loop's CPU time moves by up
to 1.5x with them, even when the process has the core to itself.  The
stack slows with the core in the same way, so rates and latencies on
the CPU clock follow the host rather than the code.

The benchmark therefore times a fixed reference loop right before and
right after every round, and counts the round's CPU time, its
latencies and its set-up time in reference seconds: one reference
second is the time the loop needs for ITERATIONS_PER_REF_S iterations
at the speed the core had around that round.  On a 2-vCPU cloud VM a
round's rate follows the loop's speed with a log-log slope of 0.8 to
0.9, and the spread of 25 s medians of 1.25 s rounds fell from 0.10
to 0.07 of their value on tcp_bulk and from 0.27 to 0.08 on udp_frag.
ITERATIONS_PER_REF_S is fixed so that a reference second is about one
CPU second of such a VM's core when it runs fast.
"""

from __future__ import annotations

import time

ITERATIONS = 200_000  # one burst: about 25-40 ms
ITERATIONS_PER_REF_S = 8_000_000

cpu_clock = time.process_time  # every thread of the process, in seconds


def burst() -> float:
    """CPU seconds the reference loop takes for ITERATIONS iterations now."""
    x = 1
    start = cpu_clock()
    for _ in range(ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return cpu_clock() - start


def ref_per_cpu_s(before: float, after: float) -> float:
    """Reference seconds per CPU second, from the bursts around a round."""
    iterations_per_cpu_s = ITERATIONS / ((before + after) / 2)
    return iterations_per_cpu_s / ITERATIONS_PER_REF_S
