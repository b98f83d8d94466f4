"""Machine-speed reference for the end-to-end timings.

The host this benchmark was built on runs the same code 1.5x slower in some
minutes than in others (this kernel took 0.30 to 0.48 ms within one
40-second window), so raw op times drift by more than any useful bound.
Every end-to-end time is therefore scaled by the speed the machine showed
while it was measured: the run times this fixed kernel between ops, and a
time t measured while the kernel's median was r reports as
t * NOMINAL_S / r, the time on a machine where the kernel takes NOMINAL_S.
A change to claguerre cannot change the kernel, so the scaled times move
with the program's cost and not with the machine's.  The raw figures are
kept in the context record.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

NOMINAL_S = 4e-4  # the kernel's median time on the host where it was tuned
SAMPLES = 2  # kernel timings after each op


def kernel():
    """A fixed mix of the work claguerre does: Fraction arithmetic with
    small-integer gcds and allocation, and a float bytecode loop."""
    acc = Fraction(0)
    for k in range(1, 40):
        acc += Fraction(k, 3 * k + 1) ** 2
    x = 0.0
    for i in range(2000):
        x = x * 0.999 + i % 7
    return acc, x


def sample(count: int = SAMPLES) -> list[float]:
    """Wall times of ``count`` kernel runs."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def scale(samples: list[float]) -> float:
    """Factor that turns a time measured alongside ``samples`` into a time
    at nominal speed."""
    return NOMINAL_S / statistics.median(samples)
