"""Reference-speed clocks for a shared, unsteady CPU.

On a small shared machine the speed of one CPU is not constant: it flips
between a fast and a slow level, for a quarter of a second up to several
seconds at a time, whenever another tenant loads the other half of the
physical core. Wall-clock trials/s from two runs of the same code then differ
by up to a factor of two.

``SpeedClock`` samples that speed while the benchmark runs. A ``SIGALRM``
handler runs a fixed probe every ``PERIOD_S`` seconds and records its start
and end. The probe is a 600-step Python loop that indexes a list and adds; it
slows like the interpreter-bound work of construction, parsing, set-up and
the desk and noisy trials (a loop of integer multiplications slows less).
``RefTime`` converts wall-clock instants into *reference seconds*: each gap
between two probes counts as its wall length times ``REF_PROBE_S / d``,
where ``d`` is the probe duration around the gap (a centred running median
over ``SMOOTH`` probes), and the probes' own time counts as zero.
``SpeedClock.wall_time()`` converts into wall seconds instead, with the
probes' time likewise dropped, for work the probe does not track.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.003
SMOOTH = 9
# the probe's duration at the fast level of the machine the benchmark was
# built on; it defines the reference second
REF_PROBE_S = 16e-6

_LIST = list(range(16))
_STEPS = [7] * 600


def _probe() -> None:
    total = 0
    for i in _STEPS:
        total += _LIST[i]


class SpeedClock:
    """Samples CPU speed with a periodic probe while it is running.

    Use as a context manager around the code to be timed; it may be entered
    several times, and ``ref_time()`` converts instants from any of those
    stretches. Nothing that forks or waits on a child should run inside it.
    """

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe()
        end = time.perf_counter()
        self._starts.append(start)
        self._ends.append(end)

    def __enter__(self) -> "SpeedClock":
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def probes(self) -> int:
        return len(self._starts)

    def median_probe_us(self) -> float:
        return float(np.median(np.subtract(self._ends, self._starts))) * 1e6

    def ref_time(self) -> "RefTime":
        return RefTime(np.asarray(self._starts), np.asarray(self._ends), scaled=True)

    def wall_time(self) -> "RefTime":
        return RefTime(np.asarray(self._starts), np.asarray(self._ends), scaled=False)


class RefTime:
    """Maps ``time.perf_counter()`` instants to reference seconds, or to wall
    seconds without the probes' time when not ``scaled``."""

    def __init__(self, starts: np.ndarray, ends: np.ndarray, scaled: bool):
        self.starts = starts
        self.ends = ends
        if starts.size == 0:
            return
        durations = ends - starts
        if scaled:
            half = SMOOTH // 2
            padded = np.pad(durations, half, mode="edge")
            smooth = np.median(np.lib.stride_tricks.sliding_window_view(padded, SMOOTH), axis=1)
        else:
            smooth = np.full(durations.size, REF_PROBE_S)
        # factor[k] converts the gap that ends where probe k starts
        self.factor = REF_PROBE_S / smooth
        gaps = starts[1:] - ends[:-1]
        self.at_start = np.concatenate(([0.0], np.cumsum(gaps * self.factor[1:])))

    def __call__(self, instants) -> np.ndarray:
        t = np.asarray(instants, dtype=float)
        if self.starts.size == 0:
            return t.copy()
        k = np.searchsorted(self.starts, t, side="right")  # probes started by t
        prev = np.maximum(k - 1, 0)
        nxt = np.minimum(k, self.starts.size - 1)
        out = self.at_start[prev] + np.maximum(t - self.ends[prev], 0.0) * self.factor[nxt]
        first = self.at_start[0] - (self.starts[0] - t) * self.factor[0]
        return np.where(k == 0, first, out)

    def inverse(self, ref: float) -> float:
        """The first instant at which this clock reads ``ref``."""
        if self.starts.size == 0:
            return ref
        k = int(np.searchsorted(self.at_start, ref, side="left"))  # first probe at or past ref
        if k == 0:
            return float(self.starts[0] - (self.at_start[0] - ref) / self.factor[0])
        nxt = min(k, self.starts.size - 1)
        return float(self.ends[k - 1] + (ref - self.at_start[k - 1]) / self.factor[nxt])

    def span(self, start: float, end: float) -> float:
        """Reference seconds between two instants."""
        a, b = self([start, end])
        return float(b - a)
