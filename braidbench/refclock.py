"""Reference-speed clock: wall time corrected for the host's speed.

On a shared VM the same pure-Python work runs at its best speed or up to
about 1.75 times slower, and the host switches between such states many
times a second as other tenants load it.  Wall times then spread by 20%
or more between runs of the same code, and that drift is slow enough to
move whole runs.  A ``RefClock`` samples the host's speed the whole time
it runs: a timer signal every ``INTERVAL_S`` runs a fixed probe --
rational arithmetic and a small dict, the kind of work the library does
-- and records how long it took.  ``seconds(t0, t1)`` counts every
stretch of ``[t0, t1]`` between probes at the speed its nearest probe
measured, leaving the probes' own time out, in units where a probe
taking ``REF_PROBE_S`` counts at its wall length.  Work the code under
test adds or removes changes the result in proportion; the host's state
largely does not.

Signal handlers run between bytecodes of the main thread, so the probes
interleave with the library without threads; interrupted system calls
are retried by Python (PEP 475).
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.005
# The probe's time at full speed on the reference host (2-vCPU Xeon VM,
# Python 3.11.7); it only fixes the unit, the benchmark compares ratios.
REF_PROBE_S = 30e-6


def probe():
    """The fixed work whose duration measures the host's speed."""
    acc = Fraction(0)
    seen = {}
    for k in range(1, 13):
        acc += Fraction(k, k + 1)
        seen[k, k] = acc
    return acc


class RefClock:
    """Samples host speed while started; converts wall intervals."""

    def __init__(self):
        self.at = array("d")    # probe start times (perf_counter)
        self.took = array("d")  # probe durations

    def _tick(self, _signum, _frame):
        t0 = perf_counter()
        probe()
        self.at.append(t0)
        self.took.append(perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the work done between `t0` and `t1`.

        A stretch between probes counts at the speed of the probe that
        ends it; the last stretch at the speed of the last probe inside
        the interval.  An interval with no probe inside counts at the
        speed of the nearest probe before it (or after, at the start).
        """
        if not self.at:
            raise RuntimeError("the clock has taken no speed sample")
        i, j = bisect_left(self.at, t0), bisect_left(self.at, t1)
        if i == j:
            k = i - 1 if i > 0 else 0
            return (t1 - t0) * REF_PROBE_S / self.took[k]
        work, cur = 0.0, t0
        for k in range(i, j):
            work += max(self.at[k] - cur, 0.0) / self.took[k]
            cur = self.at[k] + self.took[k]
        work += max(t1 - cur, 0.0) / self.took[j - 1]
        return work * REF_PROBE_S
