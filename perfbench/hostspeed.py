"""Wall time corrected for the speed of a shared host.

On a shared virtual machine the same computation can take 1.7 times as long
for seconds at a time, with CPU time rising as much as wall time, so neither
clock separates the program from its neighbours. `HostSpeed` samples the
host's speed while the benchmark runs: every `PERIOD_S` of wall time a
SIGALRM handler times `probe`, a fixed piece of interpreted and numpy work of
the kinds the program does. An interval of wall time is then reported in
reference seconds, the time it would have taken at the speed at which `probe`
takes `REF_PROBE_S`:

    ref_seconds = (wall - probe time inside) * mean(REF_PROBE_S / probe time)

over the probes that began within `WINDOW_S` of the interval. The probe work
is fixed here and never calls the program, so a change to the program moves
reference seconds as it moves wall time on a host of steady speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.025
WINDOW_S = 0.3
# the reference speed, as the probe's time there; on the 2-vCPU Xeon of README.md the
# probe takes 0.5 ms when the host is at its fastest and twice that when neighbours slow it
REF_PROBE_S = 5.0e-4

_V = np.arange(64.0)
_X = np.linspace(0.0, 20.0, 8192)


def probe() -> float:
    """A fixed mix of interpreted loop, small-array and vectorized numpy work."""
    acc = 0.0
    for i in range(300):
        acc += float(np.dot(_V, _V)) * 1e-9 + (i % 7) * 0.5
    m = np.array([[1.0, 0.5], [0.5, 1.0]])
    for _ in range(24):
        m = m @ m * 0.25 + np.eye(2)
    return acc + float(m[0, 0]) + float((np.cos(_X) * np.exp(-_X)).sum())


@dataclass
class Lap:
    """One timed interval and the probes that ran inside it."""

    t0: float
    t1: float
    first: int   # index of the first probe after t0
    end: int     # index past the last probe before t1

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


class HostSpeed:
    """Samples the host's speed on a SIGALRM timer between `start` and `stop`; when not
    enabled it samples nothing and reports wall time."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.begin = array("d")
        self.finish = array("d")
        self._previous = None

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.begin.append(t0)
        self.finish.append(t1)

    def start(self) -> None:
        if not self.enabled:
            return
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        if not self.enabled:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        self._sample()

    def lap_start(self) -> tuple[float, int]:
        return time.perf_counter(), len(self.begin)

    def lap_end(self, started: tuple[float, int]) -> Lap:
        t0, first = started
        return Lap(t0, time.perf_counter(), first, len(self.begin))

    def ref_seconds(self, lap: Lap) -> float:
        """The lap in reference seconds; call after `stop`, so that probes follow every lap."""
        if not self.enabled:
            return lap.wall
        busy = sum(self.finish[i] - self.begin[i] for i in range(lap.first, lap.end))
        near = range(bisect.bisect_left(self.begin, lap.t0 - WINDOW_S),
                     bisect.bisect_right(self.begin, lap.t1 + WINDOW_S))
        if not near:   # a signal held back by one long native call: take the nearest probes
            near = range(max(lap.first - 1, 0), min(lap.end + 1, len(self.begin)))
        speed = statistics.fmean(REF_PROBE_S / (self.finish[i] - self.begin[i]) for i in near)
        return (lap.wall - busy) * speed

    def probe_ms(self) -> float:
        """Median probe time over the run, in ms: the host's speed, for the record."""
        return 1e3 * statistics.median(f - b for b, f in zip(self.begin, self.finish))
