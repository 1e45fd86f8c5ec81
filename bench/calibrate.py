"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes.  Each run therefore also times this fixed task, a
memoized Bellman recursion written here and independent of the package,
with the same kind of work as the solvers (tuple keys, dict lookups, float
sums, recursion).  Timings are reported at the nominal speed: multiplied by
``NOMINAL_S`` over the run's median reference time, raised to
``SENSITIVITY``.  Over the ten-seed runs recorded in BASELINE.md the solve
times followed the reference time with a log-log slope of about 0.2 to 0.8
depending on the workload; one half roughly halves the drift of every
workload without overcorrecting any of them.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

#: Reference time of a typical state of the machine the bounds were set
#: on (a 2-vCPU Xeon virtual machine, Python 3.11); it only fixes the scale.
NOMINAL_S = 0.075
SENSITIVITY = 0.5


def reference_task() -> float:
    items, levels, horizon = 12, 10, 4
    rng = random.Random(1)
    targets = [[sorted(rng.sample(range(levels), 3)) for _ in range(levels)]
               for _ in range(items)]
    probs = [[[rng.random() for _ in range(3)] for _ in range(levels)]
             for _ in range(items)]
    memo: dict[tuple[int, int, int], float] = {}

    def value(t: int, level: int, mask: int) -> float:
        if t == horizon:
            return float(level)
        key = (t, level, mask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        best = value(t + 1, level, mask)
        for i in range(items):
            bit = 1 << i
            if mask & bit:
                q = 0.0
                for j, p in zip(targets[i][level], probs[i][level]):
                    q += p * value(t + 1, max(j, level), mask & ~bit)
                if q > best:
                    best = q
        memo[key] = best
        return best

    return value(0, 0, (1 << items) - 1)


class Speed:
    """Reference timings taken through a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> float:
        """Time the reference task; returns the seconds spent."""
        spent = 0.0
        for _ in range(times):
            t0 = perf_counter()
            reference_task()
            took = perf_counter() - t0
            self.samples.append(took)
            spent += took
        return spent

    def factor(self) -> float:
        """Multiply a measured time by this to get it at the nominal speed."""
        return (NOMINAL_S / statistics.median(self.samples)) ** SENSITIVITY
