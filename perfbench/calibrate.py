"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts with
the load of other tenants: the same cell takes 20-60% longer for seconds at a
time. The drift is one factor for all code: a NumPy kernel and a pure-Python
kernel timed in turn keep the ratio of their times within a few percent while
each moves by a third. So the benchmark times a fixed kernel of its own, which
uses nothing from ``mvdickman``, right before and after each operation it
times, and scales the operation's time by ``REF_S`` over the kernel times
around it.
The result reads as seconds on the reference machine at its quiet speed; the
raw times are printed on the details line beside it.

With one worker the kernel runs only while no program code runs, so a change
to the program cannot move the kernel's time. With two workers, one worker's
kernel may overlap the other's cell, as the cells it scales did.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

#: median kernel time in seconds on the reference machine (2-core Xeon VM,
#: 2 MiB L2 per core, NumPy 2.4.6) when quiet
REF_S = 0.0018
#: kernel runs in a calibration burst between two timed stretches
REPS = 25


def kernel() -> float:
    """Fixed mix of NumPy array work and a pure-Python loop, about 2.5 ms."""
    rng = np.random.default_rng(20230529)
    x = rng.beta(2.0, 5.0, 16_000)
    w = rng.exponential(1.0, 16_000)
    z = (w * np.cos(2 * math.pi * x)).sum() + (w * np.sin(2 * math.pi * x)).sum()
    s = 0.0
    for i in range(4_000):
        s += math.sin(i * 1e-3) * i
    return float(z + s)


def kernel_times(reps: int) -> list:
    """Seconds taken by each of ``reps`` runs of the kernel."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return times


def factor(times: list) -> float:
    """Factor that turns raw seconds, timed among the kernel runs that took
    ``times``, into reference seconds."""
    return REF_S / statistics.median(times)
