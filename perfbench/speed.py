"""The CPU speed a run sees, sampled while it runs.

On a shared machine the speed of one CPU swings by up to 2x from second to
second with other tenants' load: two completion passes of one run took
12.3 s and 6.6 s.  ``SpeedProbe`` is a thread that, every
PROBE_EVERY_S, times ``probe_job`` -- a fixed piece of Fraction and dict
arithmetic, the kind of work cyfold does -- and keeps (end time, duration).
``scaled(t0, t1)`` converts a measured interval to seconds at the reference
speed, the speed at which ``probe_job`` takes REFERENCE_S:

    scaled = (t1 - t0) * mean(REFERENCE_S / duration_i)

over the samples taken inside the interval.  Work done is the integral of
speed over time, and the samples are spaced evenly in time, so the mean of
the sampled speeds is the interval's average speed.

The probe is a thread of the measured process because that tracks the
process's own slowdowns best: over the same completion passes, scaled
times spread 2.5-2.7 % (first to third quartile, over the median) with
the thread and 3.8-6.1 % with the same probe run as a separate process,
pinned to the process's CPU or not.  The thread shares the interpreter
lock, allocator and garbage collector with cyfold, so a change to cyfold
could move its reading; README.md gives the check, which found no shift
beyond its own noise of a few per cent.  The
probe takes the interpreter lock for about 0.3 ms every 50 ms, under 1 %
of a pass.
"""

import threading
import time
from fractions import Fraction

PROBE_EVERY_S = 0.05
# the probe's usual duration on a shared 2-core x86-64 VM with Python 3.11,
# so that scaled and measured times are close there; any fixed value gives
# the same comparisons
REFERENCE_S = 0.0003


def probe_job():
    acc = Fraction(0)
    seen = {}
    for i in range(1, 120):
        acc += Fraction(i % 13 - 6, i % 7 + 1)
        seen[i % 17] = seen.get(i % 17, 0) + i * i
    return acc


class SpeedProbe(threading.Thread):
    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []  # (end time, duration), end times increasing
        self._stop_event = threading.Event()

    def run(self):
        clock = time.perf_counter
        while not self._stop_event.wait(PROBE_EVERY_S):
            t0 = clock()
            probe_job()
            t1 = clock()
            self.samples.append((t1, t1 - t0))

    def stop(self):
        self._stop_event.set()
        self.join()

    def speed(self, t0, t1):
        """Mean speed over [t0, t1] relative to the reference; None when
        no sample fell inside."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if not inside:
            return None
        return sum(REFERENCE_S / d for d in inside) / len(inside)

    def scaled(self, t0, t1, outer=None):
        """Seconds at the reference speed for the interval [t0, t1]; an
        interval without samples takes the speed of ``outer``."""
        s = self.speed(t0, t1)
        if s is None and outer is not None:
            s = self.speed(*outer)
        return (t1 - t0) * (s if s is not None else 1.0)
