"""Calibrated seconds: host-speed correction for benchmark timings.

The benchmark host is shared, and its speed drifts by tens of percent
within seconds.  A fixed pure-Python kernel slows down with it, so the
benchmark times the kernel between timed regions (never during one)
and scales every raw timing by ``K_REF / K_measured``, where
``K_measured`` is the mean of the kernel samples taken just before and
just after the region.  Host drift cancels; a real change in the
program does not, because the kernel lives here and never calls into
``repro``.

Each sample times two parts.  The interpreter part (:func:`kernel`)
tracks simulation, which is bytecode-bound.  Cache reads (file reads,
JSON parsing, result rehydration) feel memory contention more than the
interpreter part does, so regions marked ``memory=True`` are scaled by
both parts together, adding :func:`memory_kernel` and ``K_MEM_REF``.
"""

from __future__ import annotations

import heapq
import random
import time
from bisect import bisect_left, bisect_right
from itertools import repeat
from statistics import median

#: seconds one kernel sample takes on the reference host (a 2-core
#: x86-64 VM running CPython 3.11); calibrated seconds are seconds on
#: that host.
K_REF = 0.0035
#: seconds one :func:`memory_kernel` run takes on the reference host
#: between timed regions, where the workload has evicted its objects
#: from the caches (run back to back, it takes under half of this).
K_MEM_REF = 0.0033

#: seconds between kernel samples: :meth:`Calibrator.maybe_sample`
#: samples only once this much has passed since the last sample.
MIN_INTERVAL = 0.02

#: iterations of the arithmetic loop and passes over the heap.
ALU_ITERS = 15_000
HEAP_PASSES = 2

#: the kernel's heap: built once at import, then only rearranged.
_HEAP_ITEMS = [((i * 7919) % 1009, i) for i in range(1009)]
_HEAP = list(_HEAP_ITEMS)
heapq.heapify(_HEAP)

#: the memory kernel's objects (distinct ints, about 4 MB with their
#: list) and the fixed random order it reads 12,000 of them in.
_WALK_ITEMS = [1000 + i for i in range(1 << 17)]
_WALK_ORDER = random.Random(5).sample(range(len(_WALK_ITEMS)), 12_000)


def kernel() -> int:
    """Fixed, allocation-free mix of bytecode arithmetic and heap sifts.

    The arithmetic keeps every value below 256, so CPython serves them
    from its small-int cache; ``heapreplace`` keeps the heap's size, so
    its list never reallocates, and every call sifts down to a leaf, so
    its cost hardly depends on the heap's current order.  The heap work
    mirrors the simulator's event queue, the arithmetic its interpreter
    overhead.
    """
    a, b, c = 1, 7, 3
    for _ in repeat(None, ALU_ITERS):
        a = (a * 5 + b) & 255
        b = (b ^ a) & 127
        c = (c + a - b) & 63
    heap, replace = _HEAP, heapq.heapreplace
    for _ in repeat(None, HEAP_PASSES):
        for item in _HEAP_ITEMS:
            replace(heap, item)
    return a + b + c


def memory_kernel() -> int:
    """Fixed, allocation-free reads scattered over a few megabytes.

    The reads are spread over more memory than the nearest caches
    hold, so their cost follows the memory contention that cache reads
    feel; ``& 255`` keeps each result in CPython's small-int cache.
    """
    items = _WALK_ITEMS
    x = 0
    for i in _WALK_ORDER:
        x = items[i] & 255
    return x


class Calibrator:
    """Kernel samples taken through a run, and the corrections they give.

    Callers record raw ``(t0, t1)`` regions with ``time.perf_counter``
    and call :meth:`maybe_sample` between regions; after the run,
    :meth:`seconds` corrects a region with the samples that bracket it,
    so drift inside a run is corrected too.
    """

    def __init__(self) -> None:
        self._times: list[float] = []      # sample midpoints, ascending
        self._values: list[float] = []     # kernel seconds
        self._memory: list[float] = []     # memory kernel seconds
        self._last = float("-inf")

    def sample(self) -> None:
        """Time one run of each kernel now."""
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        memory_kernel()
        t2 = time.perf_counter()
        self._times.append((t0 + t2) / 2)
        self._values.append(t1 - t0)
        self._memory.append(t2 - t1)
        self._last = t2

    def maybe_sample(self) -> None:
        """Sample if :data:`MIN_INTERVAL` has passed since the last sample."""
        if time.perf_counter() - self._last >= MIN_INTERVAL:
            self.sample()

    @property
    def n_samples(self) -> int:
        return len(self._values)

    def factor(self, t0: float, t1: float, memory: bool = False) -> float:
        """``K_REF / K_measured`` for the region ``[t0, t1]``; with
        ``memory``, both kernels' references over both kernels' times."""
        before = bisect_right(self._times, t0) - 1
        after = bisect_left(self._times, t1)
        near = [i for i in (before, after) if 0 <= i < len(self._values)]
        if not near:
            raise RuntimeError("no calibration samples taken")
        ref = K_REF
        measured = sum(self._values[i] for i in near)
        if memory:
            ref += K_MEM_REF
            measured += sum(self._memory[i] for i in near)
        return ref * len(near) / measured

    def seconds(self, t0: float, t1: float, memory: bool = False) -> float:
        """Calibrated length of the raw region ``[t0, t1]``."""
        return (t1 - t0) * self.factor(t0, t1, memory)

    def run_factor(self, memory: bool = False) -> float:
        """The reference over the median sample of the run."""
        if not self._values:
            raise RuntimeError("no calibration samples taken")
        if memory:
            return (K_REF + K_MEM_REF) / median(
                map(sum, zip(self._values, self._memory)))
        return K_REF / median(self._values)
