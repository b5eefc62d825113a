"""Host-speed normalisation of wall-clock times.

On a small shared virtual machine the speed of a vCPU follows the load of
its neighbours: the same warm round of ``mlalgos`` measured 0.15 s and
0.30 s a few seconds apart on a 2-vCPU host, with no steal time recorded
and process time equal to wall time.  A median over a few seconds cannot
average that out.

So a fixed calibration loop (pure Python, the interpreter work that
dominates this repository) is timed every ``PERIOD`` seconds from a
SIGALRM handler while the benchmark runs.  An operation's *normalised*
time is its wall time times the host's relative speed around it (``CAL_REF``
over the loop's time): the seconds it would have taken on a host where
the loop takes ``CAL_REF``.  On a 60 s trace of ``mlalgos`` warm rounds
the medians of 20-round windows spread 0.15 (quartile distance over
median) in wall time and 0.02 normalised.  The handler costs about 0.3% of
the run and lands in whatever code it interrupts.
"""

from __future__ import annotations

import signal
import time

#: sampling period of the calibration loop (wall seconds)
PERIOD = 0.02
#: samples this far before and after an operation also describe it
PAD = 0.05
#: samples in the rolling median that smooths the speed series
SMOOTH = 5
#: the calibration loop's time, in seconds, on the reference host: an
#: uncontended 2 GHz Xeon vCPU (Python 3.11).  It only fixes the unit.
CAL_REF = 30e-6


def _loop() -> None:
    d = {}
    for i in range(300):
        d[i & 15] = d.get(i & 15, 0) + i


class SpeedSampler:
    """Times the calibration loop periodically from a SIGALRM handler."""

    def __init__(self) -> None:
        #: (start, seconds) of each sample.  One list append per sample: an
        #: array would refuse to grow while numpy views its buffer, and a
        #: handler can fire at any bytecode.
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        _loop()  # warm the loop so the sample reads the host, not caches
        t0 = time.perf_counter()
        _loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def summary(self) -> dict:
        """Sample count and calibration-time quartiles (microseconds)."""
        import statistics

        durations = [d for _, d in list(self.samples)]
        if len(durations) < 2:
            return {"samples": len(durations)}
        q1, q2, q3 = statistics.quantiles(durations, n=4)
        return {"samples": len(durations), "cal_us_q1": q1 * 1e6,
                "cal_us_median": q2 * 1e6, "cal_us_q3": q3 * 1e6}

    def clock(self):
        """A ``(t0, t1) -> normalised seconds`` function over the samples
        taken so far (call after the last operation has ended).

        Each sample gives a relative speed ``CAL_REF / loop time``; a
        rolling median over ``SMOOTH`` samples removes single outliers, and
        an operation is charged its wall time times the mean smoothed
        speed within ``PAD`` of it -- the integral of the speed over a long
        operation, the local speed around a short one.
        """
        import numpy as np  # deferred: BLAS threads are set before numpy loads
        from numpy.lib.stride_tricks import sliding_window_view

        samples = np.array(sorted(self.samples), dtype=np.float64).reshape(-1, 2)
        times = samples[:, 0]
        speed = CAL_REF / samples[:, 1]
        if len(speed) >= SMOOTH:
            edge = np.pad(speed, SMOOTH // 2, mode="edge")
            speed = np.median(sliding_window_view(edge, SMOOTH), axis=1)
        overall = float(speed.mean()) if len(speed) else 1.0

        def normalised(t0: float, t1: float) -> float:
            lo, hi = np.searchsorted(times, (t0 - PAD, t1 + PAD))
            return (t1 - t0) * (float(speed[lo:hi].mean()) if hi > lo
                                else overall)
        return normalised


def wall(t0: float, t1: float) -> float:
    return t1 - t0
