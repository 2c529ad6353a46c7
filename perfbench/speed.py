"""Machine-speed probe: a fixed reference computation timed between ops.

On a shared virtual machine the speed of the benchmark's one thread drifts
with what the host's other tenants do: on the 2-vCPU machine this benchmark
was tuned on, the same code ran up to 1.8x slower in one 30 s run than in
the next, and by 1.4x from one second to the next.  No length of run
averages that away.  So the runner times a small fixed computation (a
Python loop plus a few small numpy solves, the two kinds of work the ops
do) after an op whenever PROBE_EVERY_S have passed since the last probe,
and scales each op's time by REF_S over the median probe time within
WINDOW_S of the op's start.  A scaled time reads as milliseconds at the
speed the host had when the probe took REF_S.  The probe does not touch
adimsolve, so a change to the package moves op times and leaves the probe
alone.  Raw times are kept in the result file.
"""
from __future__ import annotations

import time

import numpy as np

PROBE_EVERY_S = 0.01
WINDOW_S = 1.0
MIN_PROBES = 3            # fewer in the window: use the nearest ones instead
# the probe's time in a calm period on the machine the benchmark was tuned
# on (Intel Xeon at 2.1 GHz, 2 shared vCPUs, one OpenBLAS thread); a run's
# median probe there ranged over 0.28-0.63 ms (median 0.50 ms)
REF_S = 3.5e-4

_A = np.random.default_rng(0).standard_normal((60, 60)) + 60.0 * np.eye(60)
_B = np.ones(60)


def probe() -> float:
    """Time one run of the reference computation, in seconds."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(2000):
        s += i * 0.5
    for _ in range(5):
        np.linalg.solve(_A, _B)
        _A @ _B
    return time.perf_counter() - t0


class SpeedLog:
    """Probe times and when they were taken, over one run."""

    def __init__(self):
        self.at, self.took = [], []
        self._due = 0.0

    def maybe_probe(self) -> None:
        now = time.perf_counter()
        if now >= self._due:
            self.at.append(now)
            self.took.append(probe())
            self._due = time.perf_counter() + PROBE_EVERY_S

    def factors(self, starts) -> np.ndarray:
        """REF_S over the local probe median, for ops started at `starts`."""
        return REF_S / local_medians(np.array(self.at), np.array(self.took),
                                     np.asarray(starts, dtype=float))


def local_medians(at: np.ndarray, took: np.ndarray, starts: np.ndarray,
                  window: float = WINDOW_S) -> np.ndarray:
    """For each start time, the median of the probes taken within `window`
    of it, or of the MIN_PROBES nearest probes when the window holds fewer.
    `at` is sorted, as probes are taken in order."""
    out = np.empty(len(starts))
    lo = np.searchsorted(at, starts - window)
    hi = np.searchsorted(at, starts + window)
    for i, s in enumerate(starts):
        a, b = lo[i], hi[i]
        if b - a < MIN_PROBES:
            nearest = np.argsort(np.abs(at - s), kind="stable")[:MIN_PROBES]
            out[i] = np.median(took[nearest])
        else:
            out[i] = np.median(took[a:b])
    return out
