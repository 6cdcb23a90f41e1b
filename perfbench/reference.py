"""The host-speed reference of the polyfam benchmark.

The CPU speed of a shared host drifts by a quarter and more over minutes, and
dips for tens of milliseconds at a time, as other tenants load it. Timed
right beside the ops, in the same process or in a child started like the
op's, this fixed load slows down with them, so the benchmark can report its
times in reference seconds: the seconds the work would take on a host that
runs reference_work() in REFERENCE_S. Nothing here depends on polyfam, so no
change to the library moves the reference.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.006  # reference_work() seconds on a 2-core Xeon at its fastest
REPEATS = 5


def reference_work():
    """A load like the library's own: a Fraction polynomial from 40 roots and
    an integer triangle of 60 rows."""
    rng = random.Random(12345)
    roots = [Fraction(rng.randrange(-20, 21) or 1, rng.randrange(1, 21)) for _ in range(40)]
    coeffs = [Fraction(1)]
    for root in roots:
        product = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            product[i] += c
            product[i + 1] -= c * root
        coeffs = product
    table = {}
    for n in range(60):
        for k in range(n + 1):
            table[n, k] = (
                table.get((n - 1, k - 1), 1) + k * table.get((n - 1, k), 0) if n else 1
            )
    return coeffs[-1], len(table)


def reference_seconds() -> float:
    """Mean wall time of reference_work() over REPEATS calls, with the
    collector off so that the heap a workload has built stays out of it."""
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(REPEATS):
            reference_work()
        return (perf_counter() - start) / REPEATS
    finally:
        gc.enable()


def host_scale(samples: list) -> float:
    """Factor that turns this host's seconds into reference seconds, from the
    reference_seconds() samples taken beside the work. The mean, not the
    median: the work met the host's dips in the same proportion."""
    return REFERENCE_S / (sum(samples) / len(samples))
