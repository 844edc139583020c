"""Host-speed calibration and the stopwatches the workload bodies time with.

The shared hosts this benchmark runs on change speed by up to 2x, for
seconds or for minutes at a time, so raw wall times of the same code drift
far past any useful regression bound.  A timed run therefore measures with
a :class:`SpeedClock`: it runs :func:`kernel`, a fixed amount of work that
touches none of the package, at least every ``LAP_S`` seconds of a timed
phase, and scales each stretch of raw time by ``REFERENCE_S`` over the
mean kernel time measured at its two ends.  A reported time reads as
seconds on a host where the kernel takes ``REFERENCE_S``: it moves with
the package's own work and not with the host's speed.  Calibration time
itself is never counted.

A phase long enough to need laps inside it must give the clock a chance to
take them: the replays call :meth:`SpeedClock.tick` from their observer
callbacks, the streamed replay also from each reactive-engine step.

The kernel mixes the kinds of work the workloads do: interpreted Python
(dicts and loops), numpy element-wise passes over a few MB, scipy's
compiled Dijkstra, and a small HiGHS LP.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import random as sparse_random
from scipy.sparse.csgraph import dijkstra

#: Kernel wall time, in seconds, on the 2-vCPU x86_64 VM the benchmark was
#: built on, in a quiet host window.  Changing it rescales every reported
#: time, so it is fixed for good.
REFERENCE_S = 0.026
#: Kernel runs per calibration; the calibration is their median.
REPEATS = 3
#: Longest stretch of a phase, in raw seconds, scaled by one pair of
#: calibrations (where the phase ticks the clock often enough).
LAP_S = 0.5

_rng = np.random.default_rng(0)
_GRAPH = sparse_random(2000, 2000, density=0.003, random_state=1, format="csr")
_A = _rng.random((60, 120))
_B = _A.sum(axis=1)
_C = _rng.random(120)


def kernel() -> None:
    counts: dict[int, int] = {}
    for i in range(60_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    a = np.arange(200_000, dtype=float)
    for _ in range(6):
        a = np.sqrt(a * 1.0001 + 1.0)
    dijkstra(_GRAPH, indices=range(20))
    linprog(_C, A_ub=-_A, b_ub=-_B, bounds=(0, 10), method="highs")


def calibrate(repeats: int = REPEATS) -> float:
    """Median wall time of ``repeats`` kernel runs, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Stopwatch:
    """Raw wall time per phase; :meth:`split` ends one phase and starts the next.

    Used where calibrating inside a phase would distort what is measured:
    the traced run, whose spans would absorb the kernel's time.
    """

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def tick(self) -> None:
        """A point inside a phase where a lap may be taken."""

    def split(self) -> float:
        now = time.perf_counter()
        elapsed, self._start = now - self._start, now
        return elapsed


class SpeedClock(Stopwatch):
    """Phase times scaled to the reference host speed (see the module doc)."""

    def __init__(self) -> None:
        #: Every calibration taken, in seconds of kernel time.
        self.calibrations = [calibrate()]
        self._scaled = 0.0
        super().__init__()

    def _lap(self) -> None:
        elapsed = time.perf_counter() - self._start
        self.calibrations.append(calibrate())
        self._scaled += elapsed * REFERENCE_S / statistics.fmean(self.calibrations[-2:])
        self._start = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._start >= LAP_S:
            self._lap()

    def split(self) -> float:
        self._lap()
        scaled, self._scaled = self._scaled, 0.0
        return scaled
