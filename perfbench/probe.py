"""Machine-speed probe: a fixed pure-Python loop, timed.

The benchmark's machine is shared, and its speed drifts by up to ~1.8x over
tens of seconds; the drift moves this loop and the library's pure-Python
work together.  Runs time the probe during each pass and scale every
measured time by ``REFERENCE_S / probe time``, so that times read as seconds
on a machine where the probe takes ``REFERENCE_S``.  The loop mixes integer
arithmetic with building and hashing small tuples, because the workloads
slow down differently for each when the machine is busy.  It does not touch
orbitforge, so a change to the library moves the scaled times as much as the
raw ones.
"""

from __future__ import annotations

from time import perf_counter

# About the probe's time on the 2-core machine the benchmark was built on.
REFERENCE_S = 0.010


def probe_s() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(40_000):
        acc = (acc + i * i) % 1_000_003
    seen = set()
    for i in range(20_000):
        acc = (acc + i * i) % 1_000_003
        seen.add((i % 613, acc % 617))
    return perf_counter() - t0
