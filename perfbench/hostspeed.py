"""The host's current speed, from a fixed probe timed next to the measured work.

The benchmark's host is shared: other load on the same physical cores slows
this process by up to 1.85x, for stretches of seconds to minutes, and the
process's CPU time grows with its wall time (the slowdown is not time stolen
from the virtual CPU, so CPU time does not remove it). A probe of fixed,
pure-Python rational arithmetic like srptlab's own runs before and after
every measured operation; an operation's time is scaled by REF_S over the
mean of the two probes around it. A scaled time is the time the operation
would take on a host where the probe takes REF_S, which is the probe's
fastest time on the reference machine (see README.md), so on an idle
reference machine scaled and raw times agree.
"""

from __future__ import annotations

import time
from fractions import Fraction

REF_S = 0.0022


def probe() -> float:
    """Run the probe once; return its wall time in seconds."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(i % 7 + 1, i % 11 + 1)
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between probes that took `before` and `after`."""
    return seconds * REF_S * 2 / (before + after)
