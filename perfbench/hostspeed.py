"""Host-speed calibration: scales measured times to a fixed host speed.

The shared 2-core hosts this benchmark runs on do not run at one speed:
at any moment one core may be shared with another tenant and run up to
1.6x slower than the other, a process hops between the cores several
times a second, and the share of time it spends on the slow one drifts
over minutes.  A fixed single-threaded loop shows it as much as the
program does.  Between timed operations a run times a fixed kernel that
does not touch the program (Python dict/list/float work, small numpy
calls, a small Cholesky and a 150x150 matmul, roughly the mix of a
solver cycle) and scales each operation by ``REFERENCE_MS`` over the
mean kernel time around it.  A scaled time is what the operation would
have taken on a host where the kernel takes ``REFERENCE_MS``; the kernel
is the same on every commit, so a change to the program moves the
scaled time as much as the raw one.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

#: Kernel time the scaled figures are expressed at.
REFERENCE_MS = 10.0
#: Samples this close to an interval count toward its scale.  The client
#: hops between the host's cores several times a second, and the cores
#: run at different speeds, so single samples are bimodal; the mean over
#: a window gives the share of time spent on each.
WINDOW_S = 1.0

_RNG = np.random.default_rng(20240611)
_VECS = [_RNG.random(3) for _ in range(64)]
_M = _RNG.random((40, 40))
_SPD = _M @ _M.T + 40.0 * np.eye(40)
_BIG = _RNG.random((150, 150))


def kernel() -> float:
    """Run the fixed calibration work once; return its wall seconds (GC held off)."""
    gc.disable()
    try:
        return _timed_work()
    finally:
        gc.enable()


def _timed_work() -> float:
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    s = 0.0
    rows = []
    for i in range(3000):
        k = i % 97
        d[k] = d.get(k, 0) + i
        v = _VECS[i & 63]
        s += float(np.dot(v, v))
        rows.append((k, s))
    rows.sort()
    for _ in range(30):
        low = np.linalg.cholesky(_SPD)
        np.linalg.solve(low, _SPD[:, :3])
    big = _BIG
    for _ in range(6):
        big = big - 1e-3 * (big @ _BIG)
    return time.perf_counter() - t0


class HostClock:
    """Kernel times sampled through a run, and the scale they give an interval."""

    def __init__(self):
        self.at: list[float] = []   # sample mid-points, increasing
        self.ms: list[float] = []
        self.spent = 0.0            # seconds spent sampling, to take out of timings

    def sample(self) -> None:
        t0 = time.perf_counter()
        seconds = kernel()
        self.at.append(t0 + seconds / 2)
        self.ms.append(1e3 * seconds)
        self.spent += time.perf_counter() - t0

    def around(self, t0: float, t1: float) -> list[float]:
        """Kernel times sampled within WINDOW_S of [t0, t1], and at least the
        last sample before it and the first after it."""
        lo = min(bisect.bisect_left(self.at, t0 - WINDOW_S), bisect.bisect_left(self.at, t0) - 1)
        hi = max(bisect.bisect_right(self.at, t1 + WINDOW_S), bisect.bisect_right(self.at, t1) + 1)
        return self.ms[max(0, lo):hi]

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_MS over the mean kernel time around [t0, t1] (1.0 with no sample)."""
        near = self.around(t0, t1)
        return REFERENCE_MS / statistics.fmean(near) if near else 1.0

    def median_ms(self) -> float:
        return float(statistics.median(self.ms)) if self.ms else 0.0
