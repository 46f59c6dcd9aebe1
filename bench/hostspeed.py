"""The host's current speed, from two fixed calibration loops.

The machine's host is shared: other tenants slow both vCPUs together, by
2x and more, in phases of seconds to minutes. Thread CPU time slows with
wall time, so the slowdown is contention for caches, memory and sibling
hyperthreads, not stolen time, and no clock inside the machine removes
it. Two short pure-Python loops that never touch ``maxec`` slow with the
program: a walk over a large adjacency structure and a loop over a few
kilobytes. Over a pass, the operations' summed time divided by their
geometric mean varies by a third to a half as much as the raw sum. The
small loop alone tracks the operations on thousand-vertex documents far
worse; the walk alone does about as well. So the bench samples both every
``INTERVAL_S`` between operations and divides each timed interval by the
host's slowdown around it. A change in the program moves the scaled
times exactly as it moves the raw ones; a slow phase of the host mostly
does not.
"""

from __future__ import annotations

import bisect
import gc
import random
import time

# the fastest times of the walk and of the loop seen on a 2 vCPU VM with
# Python 3.11; they only set the unit, and parent and change share them
WALK_NOMINAL_S = 0.0019
LOOP_NOMINAL_S = 0.001
INTERVAL_S = 0.25
REPEATS = 2
VERTICES, DEGREE, WALK = 60000, 4, 2000


def _loop() -> int:
    """Dictionary, set and integer work on a few kilobytes."""
    counts: dict[int, int] = {}
    seen: set[int] = set()
    acc = 0
    for i in range(4000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        seen.add(i * 7 % 1013)
        acc += len(seen) ^ i
    return acc + min(counts.values())


def _fastest(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class HostSpeed:
    """Slowdown samples (time, factor) taken over a run."""

    def __init__(self):
        rng = random.Random(1)
        self.adj = {v: {rng.randrange(VERTICES) for _ in range(DEGREE)}
                    for v in range(VERTICES)}
        self.walk = rng.sample(range(VERTICES), WALK)
        # the structure must not make the program's collections slower
        gc.collect()
        gc.freeze()
        self.times: list[float] = []
        self.factors: list[float] = []

    def _walk(self) -> int:
        """Set and dictionary lookups scattered over a structure of tens of
        megabytes, like the program's graph code on its larger documents."""
        adj, acc = self.adj, 0
        for v in self.walk:
            for u in adj[v]:
                acc += len(adj[u])
        return acc

    def sample(self) -> None:
        """Geometric mean of the walk's and the loop's slowdowns, each the
        fastest of a few runs so an interrupt in one does not count. An
        untimed walk first brings the structure back into the caches, so
        the sample shows the host's state, not what the last operation
        left in the caches."""
        self._walk()
        walk = _fastest(self._walk) / WALK_NOMINAL_S
        loop = _fastest(_loop) / LOOP_NOMINAL_S
        self.times.append(time.perf_counter())
        self.factors.append((walk * loop) ** 0.5)
    def tick(self) -> None:
        """Sample if the last sample is older than ``INTERVAL_S``."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Mean slowdown of the last sample before ``start`` and the first
        after ``end`` (the nearest one where a side has none)."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        sides = [self.factors[i] for i in (before, after) if 0 <= i < len(self.times)]
        return sum(sides) / len(sides)

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the host's idle speed."""
        return seconds / self.factor(start, start + seconds)
