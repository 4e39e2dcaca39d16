"""A fixed computation whose duration tracks the machine's current speed.

The shared 2-core virtual machine the benchmark figures come from changes
speed by up to 2x, as other tenants load it: in phases that last from
seconds to minutes, and also from one few milliseconds to the next.
rep.py times this kernel right before and right after each operation, and
in a burst every PROBE_EVERY_S, and run.py scales each operation's latency
by REFERENCE_S over the probe's duration around it (see ``speed_factor``).
The kernel shares nothing with struveradii, so no change to the package
can change its time.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

PROBE_EVERY_S = 0.2
BURST = 12  # probes per burst
# The typical time of probe() on that machine.
REFERENCE_S = 1.35e-4
# How long the machine keeps one speed, roughly: an operation much shorter
# than this runs at the speed of the probes next to it, one much longer at
# the speed of the bursts around it.
TAU_S = 0.01

_A = np.linspace(-3.0, 0.0, 16)[:, None]
_B = np.linspace(0.1, 5.0, 128)[None, :]


def probe() -> float:
    """Seconds taken by the kernel (about 0.15 ms): a scalar float loop,
    like the series sums, and a vectorized exp over a block, like the zero
    scan."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(500):
        s += math.exp(-i * 1e-5) * (i % 7)
    m = _A * _B
    np.exp(m - m.max(axis=0)).sum(axis=0)
    return time.perf_counter() - t0


def burst() -> float:
    """The median of BURST probes."""
    return statistics.median(probe() for _ in range(BURST))


def speed_factor(latency_s: float, adjacent: float, around: float) -> float:
    """REFERENCE_S over the probe time that stands for an operation:
    ``adjacent`` (the mean of the probes right before and after it) for a
    short operation, ``around`` (the bursts within about a second of it)
    for a long one, and a geometric blend of the two in between."""
    w = latency_s / (latency_s + TAU_S)
    return REFERENCE_S / (adjacent ** (1.0 - w) * around ** w)
