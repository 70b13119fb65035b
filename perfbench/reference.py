"""A fixed reference task, sampled while the workloads' units of work run.

The host the benchmark runs on is shared: its speed drifts by a third and
more over seconds to minutes, with other tenants' load. A unit's time
divided by the reference task's time, sampled at the same moments in the
same process, cancels most of that drift. The task calls nothing in the
lab, so no change to the lab moves it; it is made of what the lab's own
work is made of: NumPy calls on small and batch-sized arrays, and
pure-Python loops.
"""

from __future__ import annotations

import signal
import time
from array import array
from contextlib import contextmanager

import numpy as np

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((16, 32))
_BATCH = _RNG.standard_normal((64, 12, 32))
_W = _RNG.standard_normal((32, 32)) / 8.0


def _layers(x: np.ndarray, depth: int) -> np.ndarray:
    for _ in range(depth):
        x = np.tanh(x @ _W) * 0.5 + x
        x.sum(axis=-1)
    return x


def reference_task() -> float:
    """One run of the task, one to two milliseconds of work.

    Three parts, each as sensitive to the host's speed as some of the lab's
    work: NumPy calls on arrays of 512 values, where dispatch dominates; on
    a batch of 24 576 values, the size of the lab's activations; and a
    pure-Python loop.
    """
    small = _layers(_SMALL, 20)
    batch = _layers(_BATCH, 4)
    total = 0
    for i in range(1500):
        total += i * i
    return float(small[0, 0] + batch[0, 0, 0]) + total


class Sampler:
    """Runs the reference task every ``interval`` seconds of wall time.

    While installed, a SIGALRM interval timer interrupts the main thread,
    between two Python bytecodes, and runs the task there. Each run's start
    and duration are recorded, so the time the task took can be taken out
    of the unit of work it interrupted.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.starts = array("d")
        self.durations = array("d")

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        reference_task()
        self.starts.append(started)
        self.durations.append(time.perf_counter() - started)

    @contextmanager
    def installed(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def within(self, began: float, ended: float) -> float:
        """Seconds the task ran that started between ``began`` and ``ended``."""
        return sum(d for s, d in zip(self.starts, self.durations) if began <= s < ended)
