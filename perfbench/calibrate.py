"""Host-speed calibration: a fixed kernel timed between operations.

The shared host the benchmark runs on changes speed by up to 1.7x within
seconds, at near-zero steal: a fixed pure-Python loop's CPU time follows
its wall time, so CPU time does not help.  The benchmark therefore times
a fixed kernel that calls nothing in the program (a Python loop plus
small dense solves, the two kinds of work the program's layers do)
before and after its operations, and reports each operation's time in
*reference seconds*::

    ref_s = wall_s * REF_KERNEL_S / kernel_s

where ``kernel_s`` is the mean of the two kernel samples that bracket the
operation.  A reference second is the wall second of a host on which the
kernel takes ``REF_KERNEL_S``; that was about the kernel's median on the
2-vCPU host the benchmark was written on.  A change to the program moves
the operation but not the kernel, so it shows in full.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

import numpy as np

_clock = time.perf_counter

#: the kernel's time on the reference host: 1 ref_s of work takes 1 s there
REF_KERNEL_S = 0.010
#: kernel repeats per sample; a sample is their median, so one preempted
#: repeat does not move it
REPEATS = 3

_A = np.eye(12) * 4.0 + np.full((12, 12), 0.1)


def kernel() -> float:
    """One timed pass of the fixed kernel, in wall seconds."""
    t0 = _clock()
    acc = 0.0
    table = {}
    for i in range(20_000):
        x = i * 0.5
        acc += x * x - acc * 1e-3
        table[i & 63] = acc
    b = np.ones(12)
    for _ in range(600):
        b = np.linalg.solve(_A, b + 1.0)
    return _clock() - t0


class Calibrator:
    """Kernel samples taken at points of a run, with their times."""

    def __init__(self) -> None:
        kernel()  # warm-up: first-call costs are not host speed
        #: (start, end) of each sample, on the clock the shims use
        self.spans: List[Tuple[float, float]] = []
        self.samples: List[float] = []

    def sample(self) -> float:
        start = _clock()
        value = statistics.median(kernel() for _ in range(REPEATS))
        self.spans.append((start, _clock()))
        self.samples.append(value)
        return value

    def mean(self) -> float:
        return statistics.fmean(self.samples)

    def scale(self, start: float, end: float) -> float:
        """``REF_KERNEL_S / kernel_s`` for an operation that ran from
        ``start`` to ``end``: ``kernel_s`` is the mean of the last sample
        taken before it and the first taken after it."""
        before = [s for (_, t), s in zip(self.spans, self.samples)
                  if t <= start]
        after = [s for (t, _), s in zip(self.spans, self.samples)
                 if t >= end]
        near = before[-1:] + after[:1] or self.samples
        return REF_KERNEL_S / statistics.fmean(near)
