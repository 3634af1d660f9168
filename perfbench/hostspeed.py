"""Host-speed probe: a fixed pure-Python kernel timed around every execution.

The benchmark runs on shared 2-vCPU virtual machines whose speed for
interpreter-bound work can change by 2x within minutes.  On one such host,
ten consecutive 30 s runs of the same 10,000-step transaction loop measured a
median pass time of 0.47 s to 0.77 s.  The vCPU was not descheduled (steal time
stayed flat), so the slowdown hits process time as much as wall time.  Only a
same-moment comparison can take it out.

:func:`probe` times a fixed kernel, shaped like the engine's own work (tuple
building, dict and set updates), before and after each timed interval.
:func:`rescale` turns the interval into seconds at the reference speed:
``seconds * REFERENCE_S / probe``.  The kernel uses nothing from ``repro``, so
a change to the program under test moves the rescaled time exactly as much as
it moves the raw time.  Do not change the kernel or ``REFERENCE_S``: both are
part of the benchmark's unit.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["REFERENCE_S", "probe", "rescale"]

#: Seconds one kernel call takes at the reference speed (roughly a 2.1 GHz
#: Xeon vCPU under Python 3.11 with no contention).
REFERENCE_S = 0.005

_REPEATS = 5


def _kernel() -> int:
    table: dict[tuple, int] = {}
    seen: set[int] = set()
    acc = 0
    for i in range(20_000):
        key = (i, i & 7, "k")
        table[key] = i
        if i & 3:
            seen.add(i)
        acc += len(key) + table[key]
    return acc + len(seen)


def probe() -> float:
    """Median seconds of a few kernel calls right now."""
    clock = time.perf_counter
    samples = []
    for __ in range(_REPEATS):
        start = clock()
        _kernel()
        samples.append(clock() - start)
    return statistics.median(samples)


def rescale(seconds: float, before: float, after: float) -> float:
    """*seconds* measured between probes *before* and *after*, at reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
