"""The machine's speed, sampled in the benchmark's own thread while it runs.

The reference machine is a 2-vCPU VM whose vCPU runs 1.5 to 2 times slower
in stretches of seconds to minutes, CPU time included, for reasons outside
the VM (see README).  Whole runs fall inside one such stretch, so no
statistic of wall times within a run removes it.  A ``Meter`` therefore
times a fixed probe every ``PERIOD_S`` seconds on the same thread as the
commands (from a ``SIGALRM`` handler, which runs between the program's
bytecodes) and converts a wall interval into reference seconds: the seconds
the same interval would have taken with the probe at its reference speed.
The probe is the benchmark's own code, so no change to the program moves it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

PERIOD_S = 0.025
# Dict inserts, string hashing and a sort: allocation-heavy interpreter work
# like the program's, which tracks the slow stretches better than a bare
# arithmetic loop does.
PROBE_KEYS = [str(i) * 3 for i in range(1000)]
# The probe's time on the reference machine in its fast state.  It only
# scales every figure by one constant, so that they read as seconds.
REFERENCE_PROBE_S = 1.1e-4


class Meter:
    """Samples the probe's speed; ``seconds`` turns wall time into reference time."""

    def __init__(self):
        self.starts = array("d")
        self.speeds = array("d")  # probes per second, one per sample

    def _probe(self, signum, frame):
        start = time.perf_counter()
        table = {}
        for key in PROBE_KEYS:
            table[key] = len(key)
        sorted(table)
        self.starts.append(start)
        self.speeds.append(1.0 / (time.perf_counter() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, begin: float, end: float) -> float:
        """Reference seconds of the ``perf_counter`` interval [begin, end).

        The wall time is scaled by the mean probe speed sampled inside the
        interval, or over the whole run if the interval holds no sample.
        """
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_left(self.starts, end)
        speeds = self.speeds[lo:hi] or self.speeds
        return (end - begin) * statistics.fmean(speeds) * REFERENCE_PROBE_S
