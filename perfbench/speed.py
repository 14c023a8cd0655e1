"""Machine-speed reference that end-to-end times are scaled by.

On a shared machine the speed one process gets drifts by tens of percent:
on the 2-vCPU Xeon VM the bounds were set on, it switched every few seconds
between a fast and a slow state about 1.7 times apart, as neighbours loaded
the caches, memory and cores.  Raw wall times of runs a few minutes apart
then differ more than any regression worth catching.  So each run also times
a fixed kernel, owned by the benchmark and calling no mdpgeo code, right
before and after every timed operation, and reports

    scaled seconds = measured seconds * REFERENCE_S / kernel seconds

where the kernel seconds are the mean of the two readings around the
operation: seconds on a machine whose kernel time is ``REFERENCE_S``.  A
change to the program cannot move the kernel, so the ratio keeps every
program regression while most of the machine's drift cancels.  Raw seconds
are kept in the run's report next to the scaled ones.

The kernel mixes what the workloads spend their time on: Python object
churn, JSON encoding and decoding, interpreted arithmetic, small numpy calls
and a matvec over an 8 MB matrix.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

REFERENCE_S = 0.020  # about the kernel's median on a 2-vCPU Xeon VM at 2.0 GHz
PASSES = 5  # kernel passes per reading


class Reference:
    """The reference kernel, with its matrix allocated once.

    Allocating the matrix on every pass would time page faults, whose cost
    depends on the state of the process's allocator rather than on the
    machine.
    """

    def __init__(self):
        self._m = np.full((1024, 1024), 0.5)
        self._x = np.ones(1024)

    def _kernel(self) -> None:
        doc = [{"id": f"a{i}", "v": [i * 0.5, i / 3.0]} for i in range(2000)]
        json.loads(json.dumps(doc))
        s = 0.0
        for i in range(40_000):
            s += i * 0.5
        a = np.arange(64.0)
        for _ in range(1000):
            (a * 2.0).sum()
        for _ in range(4):
            self._m @ self._x

    def reading(self) -> float:
        """Median seconds of ``PASSES`` kernel passes: the machine's speed now."""
        times = []
        for _ in range(PASSES):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """Measured seconds of one operation, scaled by the readings around it."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
