"""Machine-speed references, so a run's times do not follow the host's load.

On a shared machine the speed of every process swings, by up to 1.8x,
over stretches of seconds to minutes: a whole 25 s run can fall inside a
slow stretch, so neither the fastest repeat nor the median of a run
removes it.  The benchmark therefore times a fixed reference between
every two tasks.  A task's seconds are multiplied by its *scale*, the
reference's nominal time over the mean of the two reference timings on
either side of the task.  The result reads in seconds on a machine where
the reference takes its nominal time.  The references run no mrayleigh
code, so a change to the package moves the scaled time by its full
amount, while a slow stretch of the host moves task and reference alike.

Two references, one per kind of work:

- ``CHUNK`` for in-process tasks (sweep, solvers): a pure-Python float
  loop, small numpy calls and a numpy pass over 1.6 MB, the three kinds
  of work a residual sweep does.
- ``COLD`` for cold-start processes (cli invocations, set-up probes): a
  fresh interpreter that imports numpy.

Each nominal time is a round figure near the reference's median on the
2 vCPU Xeon the benchmark was written on.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np


class Reference:
    """A fixed piece of work, timed between tasks."""

    def __init__(self, work, nominal_s):
        self.work = work
        self.nominal_s = nominal_s

    def __call__(self):
        """Seconds one run of the reference takes now."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def scale(self, before, after):
        """Nominal over measured, from the timings on either side of a task."""
        return self.nominal_s / (0.5 * (before + after))


_SMALL = np.linspace(0.1, 1.0, 8)
_LARGE = np.random.default_rng(0).random(200_000)


def _chunk():
    acc = 0.0
    for i in range(1200):
        x = 0.5 + (i % 97) * 1e-3
        acc += math.asinh(x) * math.sqrt(1.0 + x * x) / (1.0 + math.exp(-x))
        d = {"a": x, "b": acc}
        acc += d["a"] * 1e-9 + len([x, acc, x])
    for i in range(400):
        acc += float(np.sqrt(_SMALL * i + 1.0).dot(_SMALL))
    acc += float(np.sin(_LARGE).sum())
    return acc


def _cold_start():
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


CHUNK = Reference(_chunk, 0.005)
COLD = Reference(_cold_start, 0.15)
