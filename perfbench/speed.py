"""Machine-speed calibration for the benchmark's timings.

A shared VM runs the same code at different speeds from second to second
and minute to minute: the host's load moves it between states in which the
same requests take up to 1.5 times as long, in CPU time as in wall time.
The benchmark therefore runs a fixed calibration kernel between requests and
scales each request's CPU time by the kernel's CPU time around it:

    scaled = cpu_s * REFERENCE_S / kernel_s

CPU time rather than wall time, because it leaves out the time the
hypervisor gives to other guests, which the short kernel calls mostly miss.
``scaled`` is the time the request would take at the reference speed, the
speed at which one kernel call takes ``REFERENCE_S``.  The kernel uses the
interpreter and small numpy calls, as gupbic does, and never gupbic itself,
so a change to gupbic moves ``scaled`` and a change of machine speed does
not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 2.0e-3  # near one kernel call on a 2-vCPU Xeon VM (1.4 to 3.3 ms)
WINDOW = 2  # kernel samples on each side of a request that set its speed

_MATRIX = np.random.default_rng(0).standard_normal((8, 8))


def kernel() -> float:
    """Fixed work: an interpreted loop, small SVDs and polynomial roots."""
    s = 0.0
    for i in range(1500):
        s += (i * 7) % 13 * 0.5
    for i in range(30):
        s += float(np.linalg.svd(_MATRIX + i, compute_uv=False)[0])
        s += float(np.roots([1.0, 2.0, i, 1.0, 3.0])[0].real)
    return s


def sample() -> float:
    """CPU seconds of one kernel call."""
    t0 = time.process_time()
    kernel()
    return time.process_time() - t0


def factors(samples: list[float]) -> list[float]:
    """Speed factor of each request from the kernel samples around it.

    ``samples[i]`` is taken just before request ``i`` and ``samples[i + 1]``
    just after it; request ``i`` is scaled by the median of the samples
    ``i - WINDOW .. i + 1 + WINDOW``, so one sample slowed by an interrupt
    does not move it.
    """
    n = len(samples) - 1
    return [
        REFERENCE_S / statistics.median(samples[max(0, i - WINDOW) : i + 2 + WINDOW])
        for i in range(n)
    ]
