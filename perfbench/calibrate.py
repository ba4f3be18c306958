"""Host-speed calibration: a fixed piece of work timed beside the items.

On a shared host the CPU time of identical work drifts by a fifth or more
over tens of seconds, as other guests load the cores this machine shares.
The benchmark runs a fixed, interpreter-bound reference loop -- the kind
of work the program does: tuple-keyed structural hashing and bitwise
evaluation of random AND graphs -- right before each item, so the loops
sample the host's speed all through the run, and reports every item's
CPU time scaled by ``(REFERENCE_S / <the median loop's CPU time>) **
SENSITIVITY``: the item's CPU seconds on a host where the loop takes
``REFERENCE_S``.  The loop is the benchmark's own code, so a change to
the program moves the scaled times by the same share as the raw ones.
"""

from __future__ import annotations

import time

#: CPU seconds the reference loop takes on the reference host, about what
#: it took on the two-core VM the benchmark was tuned on.
REFERENCE_S = 0.03

#: How far the program's CPU time follows the loop's when the host changes
#: speed.  In two sets of 10 runs per workload, whose median loop ranged
#: from 0.016 s to 0.032 s, the log of a run's summed slot latencies rose
#: 0.61 to 1.16 times as fast as the log of its median loop, by workload
#: and set (correlations 0.78 to 0.97).  0.8 is near their mean and kept
#: the widest spread of any workload's item metrics lowest.
SENSITIVITY = 0.8

_MASK = (1 << 64) - 1


def reference_work(rounds: int = 22) -> int:
    """Hash and evaluate ``rounds`` random AND graphs of about 1200 nodes."""
    state = 12345
    for _ in range(rounds):
        fanins = [(0, 0)] * 64
        values = [((i * 0x9E3779B97F4A7C15) >> 7) & _MASK for i in range(64)]
        table: dict = {}
        for _node in range(1200):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            a = state % len(fanins)
            b = (state >> 11) % len(fanins)
            key = (a, b) if a < b else (b, a)
            if key in table:
                continue
            table[key] = len(fanins)
            fanins.append(key)
            values.append(values[a] & ~values[b] if state & 1 else values[a] ^ values[b])
    return state


def sample() -> float:
    """CPU seconds one run of the reference loop takes now."""
    started = time.process_time()
    reference_work()
    return time.process_time() - started


def scale(cpu_s: float, loop_s: float) -> float:
    """``cpu_s`` on the reference host, given the loop took ``loop_s`` here."""
    return cpu_s * (REFERENCE_S / loop_s) ** SENSITIVITY
