"""Times scaled to a reference machine speed.

The machine the benchmark runs on slows the same code down by up to half for
spells of milliseconds to minutes, in CPU time as much as in wall time.  So
a short fixed piece of work (``calibrate``) is timed before every query, and
a query's latency is scaled by the reference calibration time over the mean
calibration time of the samples taken around it: from ``max(latency,
WINDOW_S)`` before its start to as long after its end.  A slow spell then
stretches the query and the samples around it alike.  A change to the
program leaves the calibration as it is, so it shows in full.

This module imports only what ``calibrate`` needs, so that the set-up
child (see ``run.py``) can time itself without loading more than the
program would.
"""

from __future__ import annotations

import bisect
import gc
from time import perf_counter

# calibrate() takes this long in a quiet spell of the 2-CPU machine the seed
# baseline was taken on (Python 3.11.7)
REFERENCE_S = 0.00165
WINDOW_S = 0.2


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the program's
    kind (tuple-keyed dicts, big integers, string formatting), with the
    collector off so that the program's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    terms = {}
    for i in range(3000):
        key = (i % 37, i % 41, i % 43)
        terms[key] = terms.get(key, 0) + (i * i) % 1000003
    x = 3**200
    for i in range(150):
        x = x * (i + 7) % 7**400
    " + ".join(f"{c}*h^{k[0]}" for k, c in terms.items())
    took = perf_counter() - start
    if enabled:
        gc.enable()
    return took


class Calibration:
    """The calibration samples of a run, in the order they were taken."""

    def __init__(self):
        self.at: list[float] = []  # midpoint of each sample
        self.took: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        took = calibrate()
        self.at.append(start + took / 2)
        self.took.append(took)

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds``, spent from ``start`` on, at the reference speed."""
        w = max(seconds, WINDOW_S)
        lo = bisect.bisect_left(self.at, start - w)
        hi = bisect.bisect_right(self.at, start + seconds + w)
        around = self.took[lo:hi]
        return seconds * REFERENCE_S * len(around) / sum(around)

    def factor(self) -> float:
        """Reference over mean calibration time, over the whole run."""
        return REFERENCE_S * len(self.took) / sum(self.took)
