"""A clock that takes the shared host's interference out of a timing.

The benchmark runs on a few cores of a shared host.  The host runs the
process more slowly for seconds to minutes at a time as its neighbours
load it: the same fixed pure-Python loop takes from 23 to 43 ms
depending on the moment, while neither the process's CPU time nor the
kernel's steal count shows the difference.  A workload timed by the
wall clock alone spreads by 15-36 % between runs of the same code.

:class:`HostClock` measures that slowdown while it happens.  Inside the
timed region a timer signal runs a fixed probe kernel every
:data:`PERIOD_S` seconds, in the same thread, between two bytecodes of
the workload.  The probe is a short integer loop whose data stays in
registers and the first-level cache, so the workload's own memory
footprint barely changes its duration; a probe that walked memory
would run slower after a workload that evicted it, and so hide a
change to that footprint.  The probe's duration at that moment,
against :data:`REFERENCE_PROBE_S`, is the host's slowdown factor then.
The workloads slow down more than the probe: over the repetitions of
one run, the logarithm of a repetition's time rises 1.1 to 1.6 times
as fast as the logarithm of its mean probe slowdown (correlation 0.92
to 0.99, measured on paper-figures, collectives-64 and load-steady),
so the probe's speed is raised to :data:`SLOWDOWN_EXPONENT`.
The region's *quiet time* is its wall time less the probes' own time,
with every probe interval scaled by the workload's estimated speed in
it::

    quiet_s = (wall_s - sum(probe_s))
              * mean((REFERENCE_PROBE_S / probe_s) ** SLOWDOWN_EXPONENT)

A region that is twice as slow because the program does twice the work
reads twice the quiet time; a region that is slow because the host was
busy reads about the same quiet time as on a quiet host.  The
correction is a model of the host, so it narrows the spread of a
repetition's time (from 12-20 % to 2-6 % standard deviation on those
three workloads) without removing it.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, List, Optional

#: Seconds between two probes.
PERIOD_S = 0.01

#: Loop iterations in one probe.
PROBE_ITERATIONS = 1500

#: The probe's duration on an idle 2 GHz Xeon vCPU (Python 3.11): the
#: speed quiet times are expressed at.  Only ratios between runs on
#: one host matter, so this constant fixes a unit, not a result.
REFERENCE_PROBE_S = 85e-6

#: How much faster than the probe's the workloads' time grows with the
#: host's load, on a log-log scale (see the module docstring).
SLOWDOWN_EXPONENT = 1.25


def probe() -> int:
    """The probe kernel: a fixed integer loop."""
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return total


class HostClock:
    """Context manager timing a region in wall and quiet seconds.

    Not reentrant, and only for the main thread: it owns ``SIGALRM``
    and the real-time interval timer while the region runs.  With
    ``probing`` false it runs no probe, and its quiet time is the wall
    time.
    """

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        self.probes: List[float] = []
        self.wall_s = 0.0
        self._started = 0.0
        self._previous: Optional[Any] = None

    def _on_timer(self, signum: int, frame: Any) -> None:
        started = time.perf_counter()
        probe()
        self.probes.append(time.perf_counter() - started)

    def __enter__(self) -> "HostClock":
        if self.probing:
            self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        self._started = time.perf_counter()
        if self.probing:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.probing:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall_s = time.perf_counter() - self._started
        if self.probing:
            signal.signal(signal.SIGALRM, self._previous)

    def quiet_s(self) -> float:
        """The region's time at the reference probe speed (see module doc)."""
        work_s = self.wall_s - sum(self.probes)
        if not self.probes:
            return work_s
        return work_s * statistics.fmean(
            (REFERENCE_PROBE_S / p) ** SLOWDOWN_EXPONENT for p in self.probes
        )


if __name__ == "__main__":
    # Prints the probe's fastest and median duration on this host, the
    # figures REFERENCE_PROBE_S was set from.
    samples = []
    for __ in range(5000):
        started = time.perf_counter()
        probe()
        samples.append(time.perf_counter() - started)
    print(
        f"probe min {min(samples) * 1e6:.1f} us, "
        f"median {statistics.median(samples) * 1e6:.1f} us"
    )
