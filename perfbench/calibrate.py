"""Host-speed calibration: a fixed pure-Python loop shaped like bjj's stepper.

The benchmark host is shared: for minutes at a time other tenants slow it
by up to 2x.  Over ten runs that spanned such a change, the raw median
pass time of the section workload spread by 26% (interquartile range over
median) and each job's best time by 19%.  This loop, timed right before
every job, slows down with the host; job times scaled by it spread by 6%.
Scaled times are expressed at ``REFERENCE_S``, the loop's time on a quiet
host, so they read as seconds on that host.  Set-up time is not scaled:
importing slows down differently from this loop.
"""

import math
import time

#: RK4 steps in one timing of the loop.
STEPS = 6000

#: Seconds ``loop_s`` takes for ``STEPS`` steps on a quiet Intel Xeon host
#: (2 vCPUs, Python 3.11); measured 0.029-0.031.
REFERENCE_S = 0.030


def _rate(t, y, sin=math.sin, cos=math.cos, sqrt=math.sqrt):
    z, phi = y
    root = sqrt(1.0 - z * z)
    return -root * sin(phi), 7.5 * sin(4.0 * t) + 10.0 * z + z / root * cos(phi)


def loop_s() -> float:
    """Seconds for ``STEPS`` classical RK4 steps of a driven junction."""
    start = time.perf_counter()
    t, y, h = 0.0, (0.5, 0.0), 1e-3
    for _ in range(STEPS):
        k1 = _rate(t, y)
        k2 = _rate(t + 0.5 * h, tuple(a + 0.5 * h * b for a, b in zip(y, k1)))
        k3 = _rate(t + 0.5 * h, tuple(a + 0.5 * h * b for a, b in zip(y, k2)))
        k4 = _rate(t + h, tuple(a + h * b for a, b in zip(y, k3)))
        y = tuple(a + h / 6.0 * (b + 2.0 * (c + d) + e)
                  for a, b, c, d, e in zip(y, k1, k2, k3, k4))
        t += h
    return time.perf_counter() - start
