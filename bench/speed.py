"""Machine-speed probe for the untraced run.

On a shared host the speed of this process drifts by ±30% over fractions of
a second, with the load of other tenants.  While the measured loop runs, an
interval timer (SIGALRM, so no thread) interrupts the program every
INTERVAL_S and times one run of `probe_work`, a fixed computation that shares
no code with topobetti.  An interval's time in reference units is its own
time, less the probes that ran inside it, divided by the mean probe time
during and around it; drift that slows both cancels.  Multiplied by
NOMINAL_S, it reads as seconds at a fixed machine speed.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.025
# Seconds of one probe_work at a typical load of the shared 2-core x86-64
# host the baseline was recorded on; turns reference units back into seconds.
NOMINAL_S = 0.002
# Probes taken in a row when sampling starts and when it ends, so that a short
# interval near either end, such as the imports, has several probes beside it.
BRACKET_PROBES = 5


def probe_work(n=150):
    """About 2 ms of Fraction arithmetic, like the program's hot paths."""
    acc, x = Fraction(0), Fraction(1, 3)
    for i in range(1, n):
        acc += Fraction(i, 7) * x - Fraction(1, i % 97 + 1)
        x = x * Fraction(i + 1, i + 2)
    return acc


class SpeedProbe:
    """Context manager that samples probe_work while it is active."""

    def __init__(self):
        self.starts = []  # perf_counter at the start of each probe
        self.seconds = []  # how long each probe took
        self._saved = None

    def sample(self, n=1):
        """Time n runs of probe_work, one after another."""
        enabled = gc.isenabled()
        gc.disable()  # a collection would walk the program's heap, not time the machine
        for _ in range(n):
            t0 = time.perf_counter()
            probe_work()
            t1 = time.perf_counter()
            self.starts.append(t0)
            self.seconds.append(t1 - t0)
        if enabled:
            gc.enable()

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self.sample(BRACKET_PROBES)  # so that every operation has probes either side
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self.sample(BRACKET_PROBES)
        return False

    def _between(self, t0, t1):
        return self.seconds[bisect.bisect_left(self.starts, t0):bisect.bisect_left(self.starts, t1)]

    def net_seconds(self, t0, t1) -> float:
        """Seconds from t0 to t1, less the probes that interrupted them."""
        return (t1 - t0) - sum(self._between(t0, t1))

    def nominal_seconds(self, t0, t1) -> float:
        """Net seconds from t0 to t1, scaled from the mean probe time around them to NOMINAL_S."""
        near = self._between(t0 - INTERVAL_S, t1 + INTERVAL_S)
        if not near:  # the timer was held off; use the probes either side
            i = bisect.bisect_left(self.starts, t0)
            near = self.seconds[max(i - 1, 0):i + 1]
        return self.net_seconds(t0, t1) * NOMINAL_S / statistics.mean(near)
