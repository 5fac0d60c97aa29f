"""Host-speed yardstick: a fixed kernel timed all through a measurement.

The benchmark shares its host with other work, and the speed a process gets
drifts by more than half within minutes and by a tenth within seconds.  A
wall time is therefore corrected by the host speed measured while it ran:
the time of this fixed momentum-SGD loop, which mixes the per-step Python
overhead and the small and full-data numpy passes the measured workloads
make.  The kernel is benchmark code, so a change to sgdm_sched never moves it.

``NOMINAL_S`` is the kernel's time on a quiet 2-vCPU x86_64 host (Python
3.11, numpy 2.4), so corrected figures read close to plain wall-clock ones
there; elsewhere they are in the same units at a different scale, which the
comparison of two commits on one host does not depend on.
"""

from __future__ import annotations

import signal
from time import perf_counter_ns

import numpy as np

NOMINAL_S = 0.04
_ANCHORS = np.random.default_rng(20250811).standard_normal((512, 20))


def sample(steps: int = 400) -> float:
    """Seconds the fixed loop takes now."""
    theta = np.zeros(20)
    momentum = np.zeros(20)
    t0 = perf_counter_ns()
    for t in range(steps):
        idx = np.random.default_rng((7, t)).integers(0, 512, size=16)
        grad = np.tanh(theta - _ANCHORS[idx]).mean(axis=0)
        momentum = 0.9 * momentum + 0.1 * grad
        theta = theta - 0.05 * momentum
        z = np.tanh(theta - _ANCHORS)
        float(np.einsum("ij,ij->", z, z))
    return (perf_counter_ns() - t0) / 1e9


def corrected(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` rescaled to nominal host speed, from the samples around it."""
    return wall_s * NOMINAL_S / ((before_s + after_s) / 2)


class Clock:
    """Wall time of a ``with`` block, with and without host-speed correction.

    A sample is taken on entry and on exit and, given ``interval_s``, every
    ``interval_s`` in between from a SIGALRM handler, which pauses the block
    while it measures.  Sampling time is left out of both figures; each
    stretch between two samples is corrected by the mean of those two.
    """

    def __init__(self, interval_s: float | None = None):
        self.interval_s = interval_s
        self.wall_s = 0.0
        self.corrected_s = 0.0
        self.samples: list[float] = []

    def _sample(self) -> None:
        end = perf_counter_ns()
        speed = sample()
        if self.samples:
            stretch = (end - self._resumed) / 1e9
            self.wall_s += stretch
            self.corrected_s += corrected(stretch, self.samples[-1], speed)
        self.samples.append(speed)
        self._resumed = perf_counter_ns()

    def _on_alarm(self, signum, frame) -> None:
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)  # one-shot: never nests

    def __enter__(self) -> "Clock":
        if self.interval_s:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._sample()
        if self.interval_s:
            signal.setitimer(signal.ITIMER_REAL, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()
