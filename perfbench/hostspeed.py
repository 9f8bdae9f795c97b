"""Host-speed sampling: time a fixed probe at a steady wall-clock interval.

The benchmark shares a few cores of a host with other tenants, and their load
changes how fast the same code runs, by up to twofold, in stretches of
seconds to minutes. A SIGALRM handler runs a short fixed probe every
``INTERVAL_S`` seconds and records when it started and how long it took. A
measured interval is then rescaled to a host of reference speed: its wall
time, less the probes that ran inside it, times the probe's reference time
over the probe's median time around the interval. The probe is fixed code of
the benchmark, so a change to paramarket moves the rescaled time exactly as
it moves the wall time. Of the two probes, a workload uses the one whose
speed follows its own code more closely.
"""

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025
# Probe samples within this margin around an interval count towards its median.
MARGIN_S = 0.25


def python_probe() -> None:
    """Integer bytecode: the interpreter's own speed."""
    x = 0
    for k in range(10_000):
        x += k * k


_V, _W = np.arange(8.0), np.ones(8)


def numpy_probe() -> None:
    """Operations on 8-element arrays: numpy's per-call overhead."""
    for _ in range(120):
        float(np.sum((_V - _W) ** 2))


# Each probe with its reference time: rescaled times are those of a host on
# which one probe takes this long.
PROBES = {"python": (python_probe, 0.0005), "numpy": (numpy_probe, 0.0003)}


class Sampler:
    """Context manager that samples the probe time until it exits."""

    def __init__(self, probe: str = "python"):
        self.probe, self.reference_s = PROBES[probe]
        self.starts: list = []
        self.durations: list = []

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probe()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _slice(self, start: float, end: float) -> list:
        return self.durations[bisect.bisect_left(self.starts, start):bisect.bisect_right(self.starts, end)]

    def scale(self, start: float, end: float) -> float:
        """Reference speed over host speed around ``[start, end]``."""
        return self.reference_s / statistics.median(self._slice(start - MARGIN_S, end + MARGIN_S))

    def rescaled(self, start: float, end: float) -> float:
        """Time of ``[start, end]`` in this thread, without its probes, on the reference host."""
        return (end - start - sum(self._slice(start, end))) * self.scale(start, end)
