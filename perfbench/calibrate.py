"""Machine-speed calibration for the time-based end-to-end metrics.

The machine the bounds were tuned on (2 CPUs shared with other
tenants) drifts in speed by about ±20% over tens of seconds, and the
drift hits every kind of work alike: over 90 s, a fixed program slice
spread 0.22 (quartile distance over median) while its ratio to this
kernel, timed next to it, spread 0.03.  So every time-based end-to-end
metric is reported in *reference seconds*: wall seconds scaled by
``REFERENCE_S / kernel_seconds()``, the kernel timed right before and
after the measured work.  The kernel runs no program code, so a change
to the program moves the metric in full; the raw wall values are
printed next to them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

__all__ = ["REFERENCE_S", "kernel_seconds"]

#: Median kernel time on the tuning machine (2 CPUs, python 3.11,
#: numpy 2.4); it only fixes the scale of the reported numbers.
REFERENCE_S = 0.02

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.random((32, 32))
_VECTOR = _RNG.random(256)


def _kernel() -> float:
    """Interpreter-bound dict work plus small-array numpy calls — the
    mix the diagnosis stack spends its time in."""
    table: dict[int, int] = {}
    for i in range(15000):
        table[i % 97] = table.get(i % 97, 0) + (i * 7) % 13
    total = float(sum(table.values()))
    for _ in range(1250):
        total += float((_MATRIX @ _MATRIX)[0, 0])
        total += float(np.argsort(_VECTOR)[0]) + float(np.cumsum(_VECTOR)[-1])
    return total


def kernel_seconds(repeats: int = 5) -> float:
    """Median wall time of ``repeats`` kernel runs."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)
