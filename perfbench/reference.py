"""A fixed reference kernel, timed beside every measurement.

The 2-vCPU machine the benchmark was built on shares its host: for tens of
seconds at a time other tenants slow every core by up to 2x, so raw timings
of one commit spread by 20-50% between runs.  The kernel does not touch
ris_dps and does the same work every time, so its duration tracks the
host's speed at that moment.  A measured time scaled by REFERENCE_NS over
the kernel's time beside it is that time at the reference speed.
"""

import heapq
import random
import time

import numpy as np

#: The kernel's duration on an uncontended core of the reference machine
#: (Intel Xeon VM, 2 vCPUs, Python 3.11, numpy 2.4).
REFERENCE_NS = 1_300_000


class Reference:
    """Python heap merges and small numpy calls, like the solver's own mix."""

    def __init__(self):
        rng = random.Random(0)
        self._runs = [sorted(rng.random() for _ in range(300)) for _ in range(4)]
        self._values = np.random.default_rng(0).random(200)

    def time_ns(self) -> int:
        start = time.perf_counter_ns()
        for _ in range(3):
            list(heapq.merge(*self._runs))
            for _ in range(20):
                np.abs(np.cumsum(np.sort(self._values)) - 1j)
        return time.perf_counter_ns() - start


def at_reference_speed(ns: float, reference_ns: float) -> float:
    """A measured duration rescaled to the reference speed."""
    return ns * REFERENCE_NS / reference_ns
