"""A fixed calibration task that shows how fast the host runs right now.

The benchmark's reference host is a guest on a machine shared with other
guests, and its speed swings with their load by up to a factor of two,
in phases from under a second to minutes long. The guest's CPU time
moves with its wall time, so no run of a minute can average the swings
out. Each round of a run therefore times slices of this task between its
operations, and the round's timings are scaled by `REFERENCE_SLICE_S` /
(the round's median slice): to what they would be on a host where a
slice takes `REFERENCE_SLICE_S`. The task never changes and does not
touch `splinefm`, so a change to the program moves the operations, never
the slices, and shows in full.

A slice is interpreter work of the kind the package does per row (calls,
dict lookups, float math, small lists) plus dense numpy arithmetic on
arrays of about a megabyte, as in the optimizer step. Over four minutes
on the reference host, the spread of 10 s medians of scoring latency fell
from 0.17 to 0.06 of their median when divided by the slice time.
"""
from __future__ import annotations

import gc
import math
import time

import numpy as np

# Median slice on the reference host (2 Xeon vCPUs; Python 3.11, numpy 2.4).
REFERENCE_SLICE_S = 0.011

_PY_STEPS = 8_000
_NP_STEPS = 6
_NP_SIZE = 100_000


class Calibration:
    """The calibration task, with the work arrays its slices reuse."""

    def __init__(self):
        self._a0 = np.linspace(0.0, 1.0, _NP_SIZE)
        self._g0 = np.linspace(1.0, 0.0, _NP_SIZE)
        self._a, self._g = np.empty(_NP_SIZE), np.empty(_NP_SIZE)

    def slice_seconds(self) -> float:
        """Seconds one slice takes now, with the cyclic collector paused
        so the program's live objects cannot lengthen it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _interpreter_work()
            self._array_work()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def _array_work(self) -> None:
        a, g = self._a, self._g
        np.copyto(a, self._a0)
        np.copyto(g, self._g0)
        for _ in range(_NP_STEPS):
            np.multiply(g, 0.01, out=g)
            np.subtract(a, g, out=a)
            np.add(g, 1e-3, out=g)


def _interpreter_work() -> float:
    table = {}
    acc = 0.0
    for i in range(_PY_STEPS):
        k = i % 97
        table[k] = table.get(k, 0.0) + math.sqrt(i + 1.0) * 0.5
        acc += sum([x * 1.5 for x in (i, k, 3)])
    return acc
