"""Host-speed probe: scales measured times to a fixed reference speed.

The shared host this benchmark was built on changes speed by up to 1.8×
within a second and can stay slow for minutes (CPU time equals wall time;
the clock rate reads constant).  Raw wall times of the same work then
differ by more than any useful regression bound, while the ratio of a
workload's time to this probe's time, taken around the same span, varied
by a few percent.  The probe measures that speed while the workload runs:
a timer signal interrupts the worker every ``INTERVAL_S`` and runs a fixed
pure-Python loop (``kernel``) in the main thread, between the workload's
bytecodes, and records how long the loop took.  A span's time, less the
probe's own time inside it, is multiplied by the mean speed around it,
``REFERENCE_S`` over the kernel's duration: that gives the time the span
would take at the speed at which the kernel takes ``REFERENCE_S``.

The kernel is part of the benchmark, not of the program, so a change of
the program moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.003
# Duration of one kernel call at the fastest speed seen on the host the
# benchmark was built on (2 vCPUs of a Xeon at 2.0 GHz, Python 3.11).
REFERENCE_S = 8.0e-5
# Speed around a span is taken from at least this long a window.
MIN_WINDOW_S = 0.2
TRIM = 0.1  # share of samples clipped at each end before averaging


def kernel(n: int = 500) -> int:
    acc = 0
    table = {}
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFF
        table[i & 63] = (acc, i)
    return acc


class Probe:
    """Samples the probe kernel's duration on a timer signal."""

    def __init__(self) -> None:
        self.ends: list[float] = []  # perf_counter at the end of each sample
        self.durations: list[float] = []
        self.gaps: list[float] = []  # time since the previous sample's end
        self.spent = 0.0  # total time in samples

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.gaps.append(t1 - self.ends[-1] if self.ends else INTERVAL_S)
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0

    def clock(self) -> float:
        """``perf_counter`` less the probe's own time so far."""
        return time.perf_counter() - self.spent

    def install(self) -> "Probe":
        for _ in range(50):  # let the interpreter specialize the loop first
            kernel()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _range(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.ends, t0), bisect.bisect_right(self.ends, t1)

    def probe_time(self, t0: float, t1: float) -> float:
        """Time the probe itself took inside [t0, t1]."""
        lo, hi = self._range(t0, t1)
        return sum(self.durations[lo:hi])

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed around [t0, t1], as ``REFERENCE_S`` over kernel duration.

        Speeds, not durations, are averaged, each weighted by the time since
        the previous sample: the work done in a span is the integral of speed
        over its time, and a signal waits while the program is inside one long
        C call.  The window is widened symmetrically to ``MIN_WINDOW_S``, and
        speeds are clipped to the window's ``TRIM`` and ``1 - TRIM`` quantiles
        so that a single preempted sample does not count.
        """
        pad = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2)
        lo, hi = self._range(t0 - pad, t1 + pad)
        if lo == hi:
            raise RuntimeError("no probe sample around a timed span")
        speeds = [REFERENCE_S / d for d in self.durations[lo:hi]]
        ranked = sorted(speeds)
        cut = int(len(ranked) * TRIM)
        low, high = ranked[cut], ranked[len(ranked) - 1 - cut]
        gaps = self.gaps[lo:hi]
        return sum(g * min(max(v, low), high) for g, v in zip(gaps, speeds)) / sum(gaps)

    def scaled(self, t0: float, t1: float) -> float:
        """Time of [t0, t1] without the probe's share, at the reference speed."""
        return (t1 - t0 - self.probe_time(t0, t1)) * self.speed(t0, t1)
