"""Host-speed probe: rescales wall times to a reference machine speed.

The virtual machines this benchmark runs on change speed by up to 1.7x
over tens of seconds, with little steal time: CPU time inflates with wall
time, so the host runs slower rather than descheduling the process.
Medians within one run cannot remove a slow spell that covers the run.

The probe is a fixed piece of work in pure Python and numpy that never
touches ``ghzsense``: an interpreter loop, small-array numpy calls, a
sort and a small matrix product, log-likelihood-style math on 2001-point
arrays, and a pass over an 8 MB array.  Each part alone followed some
workloads worse than the others; their sum followed all four about as
well as the best single part did.  The benchmark runs it between tasks
and scales each task's wall time by ``REFERENCE_S / probe seconds``, the
probe seconds being the median of the probes nearest the task.  A later
change to the library cannot move the probe, so the scaled times move
with the library alone; a change in host speed moves both and cancels.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

#: Median probe seconds on the reference machine (2-vCPU Intel Xeon VM) with
#: the probe run alone.  Between tasks it finds colder caches and takes about
#: 0.033 s there, so the scale is usually below 1.
REFERENCE_S = 0.025
#: Probes on either side of a task whose median sets its scale.
WINDOW = 4


class HostSpeed:
    """Probe timings taken during a run, and the scale they give."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._big = rng.random(100_000)
        self._matrix = rng.random((150, 150))
        self._small = rng.random(64)
        self._grid = rng.random(2001)
        self._memory = rng.random(1_000_000)
        self.stamps: list[float] = []
        self.seconds: list[float] = []
        self._work()  # first call pays for caches and lazy set-up

    def _work(self) -> float:
        acc = 0
        for i in range(60_000):
            acc += (i * i) % 7
        table: dict = {}
        for i in range(20_000):
            table[i & 255] = table.get(i & 255, 0) + i
        x = 0.0
        for i in range(1500):
            x += float(np.cos(self._small * i).sum())
        for i in range(100):
            p = np.clip(0.5 * (1 + 0.9 * np.cos(self._grid * (i + 1))), 1e-300, 1.0)
            x += float((37 * np.log(p) + 12 * np.log1p(-p)).max())
        x += float(np.add(self._memory, 1.0).sum() + self._memory[::7].copy().sum())
        return acc + x + float(np.sort(self._big)[0]) + float((self._matrix @ self._matrix)[0, 0])

    def probe(self) -> float:
        start = perf_counter()
        self._work()
        seconds = perf_counter() - start
        self.stamps.append(start)
        self.seconds.append(seconds)
        return seconds

    def scale(self, at: float) -> float:
        """REFERENCE_S over the median of the probes nearest time ``at``."""
        i = bisect.bisect_left(self.stamps, at)
        near = self.seconds[max(0, i - WINDOW):i + WINDOW]
        return REFERENCE_S / statistics.median(near)

    def median_scale(self) -> float:
        return REFERENCE_S / statistics.median(self.seconds)
