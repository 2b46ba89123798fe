"""Machine-speed probe for the end-to-end timings.

On a host whose cores are shared, the speed of this process drifts by up to
2x over tens of seconds, so raw batch times spread too widely from run to
run to hold any useful bound.  The probe runs a fixed calibration kernel (a
small bitmask branch-and-bound, the same kind of work as idstab's solvers)
from a timer on this process's CPU time, so that kernel samples interleave
with the workload every ``PERIOD_S``.  A timed section is then reported as
its own time (kernel time subtracted) scaled by ``REF_S`` over the mean
kernel time seen during it: seconds at the reference speed.

The kernel shares no code with idstab, so a change to idstab cannot move it.
"""

from __future__ import annotations

import random
import signal
from time import perf_counter

PERIOD_S = 0.01
# Mean sampled kernel time on the reference machine (2-vCPU Intel Xeon,
# Python 3.11.7) at its fastest; scaled times are seconds at that speed.
REF_S = 2.0e-4

_rng = random.Random(9)
_N = 28
_ADJ = [0] * _N
for _j in range(_N):
    for _i in range(_j):
        if _rng.random() < 0.3:
            _ADJ[_i] |= 1 << _j
            _ADJ[_j] |= 1 << _i


def _alpha(free: int, size: int, best: int) -> int:
    if size + free.bit_count() <= best:
        return best
    if not free:
        return size
    low = free & -free
    v = low.bit_length() - 1
    best = _alpha(free & ~(_ADJ[v] | low), size + 1, best)
    return _alpha(free ^ low, size, best)


def kernel() -> int:
    """Independence number of a fixed G(28, 0.3)."""
    return _alpha((1 << _N) - 1, 0, 0)


class Probe:
    """Accumulates kernel samples taken from a CPU-time timer."""

    def __init__(self) -> None:
        self.time = 0.0
        self.count = 0

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        self.time += perf_counter() - t0
        self.count += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def mark(self) -> tuple[float, int]:
        return self.time, self.count

    def scale(self, own: float, before: tuple[float, int], after: tuple[float, int]) -> float:
        """``own`` seconds at the reference speed, from the samples between two marks."""
        k_count = after[1] - before[1]
        if not k_count:
            return own
        return own * REF_S * k_count / (after[0] - before[0])
