"""Timings corrected for the speed of the machine at the moment they ran.

The virtual machines this benchmark runs on change speed by up to 1.5x
within seconds (a fixed pure-Python loop shows it), so a raw wall time
measures the machine as much as the program.  ``SpeedClock`` samples the
machine's speed while the program runs: every ``INTERVAL_S`` a SIGALRM
handler, in the main thread and between the program's bytecodes, runs a
fixed reference kernel that does not touch siltlab (a pure-Python loop
and small numpy products, the mix siltlab itself runs) and records how
long it took.  No thread or process is started.

A span of the program's time is then converted to *reference seconds*:
each stretch between two samples counts

    stretch seconds * REFERENCE_S / (mean of the two samples' kernel times)

and the samples' own time counts 0.  So a span reads what it would have
taken had the kernel run in ``REFERENCE_S``, the kernel's time at full
speed on the 2-core virtual machine the benchmark was calibrated on.  A
program that does more work reads more reference seconds, in proportion;
a machine that slows down for a while does not.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# Seconds between samples, and the reference kernel's time at full speed.
INTERVAL_S = 0.2
REFERENCE_S = 0.012

_MATRIX = np.arange(16, dtype=np.int64).reshape(4, 4)


def reference_kernel() -> int:
    """Fixed work: a pure-Python loop and 4x4 int64 products mod 5."""
    s = 0
    for i in range(70_000):
        s += i * i % 7
    a = _MATRIX
    for _ in range(1_700):
        a = (a @ a + 1) % 5
    return s + int(a[0, 0])


class SpeedClock:
    """``with SpeedClock() as clock:`` samples; ``clock.seconds(a, b)``
    converts a span between two ``time.perf_counter()`` readings taken
    inside the block to reference seconds."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self._cumulative: list[float] | None = None
        self._previous = None
        reference_kernel()  # warm the kernel's code paths

    def _sample(self):
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.kernel_s.append(t1 - t0)
        self._cumulative = None

    def _on_alarm(self, signum, frame):
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def _speed(self, k: int) -> float:
        """Reference seconds per second in the stretch ending at sample k."""
        kernel = self.kernel_s
        if k <= 0:
            return REFERENCE_S / kernel[0]
        if k >= len(kernel):
            return REFERENCE_S / kernel[-1]
        return REFERENCE_S / ((kernel[k - 1] + kernel[k]) / 2)

    def _at(self, t: float) -> float:
        """Reference seconds from the first sample's end to time ``t``."""
        if self._cumulative is None:
            total, cumulative = 0.0, [0.0]
            for k in range(1, len(self.starts)):
                total += (self.starts[k] - self.ends[k - 1]) * self._speed(k)
                cumulative.append(total)
            self._cumulative = cumulative
        k = bisect.bisect_right(self.ends, t)  # samples ended by t
        if k == 0:
            return (t - self.ends[0]) * self._speed(0)
        stretch_end = self.starts[k] if k < len(self.starts) else t
        return (self._cumulative[k - 1]
                + (min(t, stretch_end) - self.ends[k - 1]) * self._speed(k))

    def seconds(self, start: float, end: float) -> float:
        return self._at(end) - self._at(start)

    def samples(self) -> int:
        return len(self.kernel_s)


def raw_seconds(start: float, end: float) -> float:
    return end - start
