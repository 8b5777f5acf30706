"""Reference clock: wall time scaled to the speed of a fixed kernel.

On a shared host the CPU speed of one process drifts: a fixed piece of
pure-Python work switches between a fast and a slow state about 1.5x
apart, and a state can hold for seconds or for a whole 30 s run.  A
median or best time over one run then follows the host, not the program.

The benchmark therefore times a fixed reference kernel right before and
right after every timed task and reports the task's wall time scaled by
REF_S / (mean reference time): the time the task would take on a machine
on which the kernel takes exactly REF_S.  A change to the program moves
the task time and leaves the kernel alone, so it moves the scaled time
by the same factor; a change of host speed moves both and cancels.

The kernel mixes, in about equal parts of its time, the kinds of work the
program does in the interpreter: a scalar complex recurrence (the
`states` loop), stores into a numpy array by index, small-array numpy
arithmetic (the integrator's steps) and object and dict traffic (the
schedule and CLI code).  On the host it was tuned on, scaling by this
mix followed the speed of sampled tasks of every workload more closely
than any one of its parts alone; the scaling cancels host speed exactly
only for work that slows down the way the kernel does.
"""

from __future__ import annotations

import math
import time

import numpy as np

REF_S = 1e-3  # scaled times are in units in which one kernel call takes this long


class _Cell:
    def __init__(self, value):
        self.value = value

    def step(self, x):
        return self.value * x + 1


_STORE = np.zeros(2048)
_V0 = np.array([0.1, 0.2, 0.3, 0.4])
_W0 = np.array([0.4, 0.3, 0.2, 0.1])


def kernel():
    z, acc = 0.3 + 0.1j, 0.0
    sqrt = math.sqrt
    for n in range(1, 750):
        z = -(0.7j * z) / sqrt(n + 1.0) + 0.01
        acc += z.real * z.real + z.imag * z.imag
    store, x = _STORE, 0.5
    for i in range(2048):
        store[i] = x
        x = x * 0.999 + 0.001
    v, w = _V0, _W0
    for _ in range(75):
        v = v * 0.5 + w
        w = np.abs(v - float(np.dot(v, w)))
    cells, total = {}, 0
    for i in range(500):
        cell = _Cell(i)
        cells[i % 64] = cell
        total += cell.step(i) - [total, i][0] // 2
    return acc + x + float(w[0]) + total


def probe():
    """Wall time of one kernel call, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
