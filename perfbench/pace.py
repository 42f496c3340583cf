"""How fast the host runs fixed pure-Python work right now.

A shared host slows down and speeds up by tens of percent within
seconds, because other tenants contend for its cores and caches.  The
benchmark samples a fixed reference kernel around each timed call and
every few tenths of a second (``workloads.Probe``), leaves the samples'
own time out, and scales each stretch between two samples by
``REFERENCE_S`` over their mean reading.  So host metrics read as
seconds on a host running the kernel in ``REFERENCE_S``.  The kernel is
shaped like the simulator's hot loop (a heap of timed events, generator
steps, dict updates) but shares no code with the program under test, so
a change to the program cannot move it.
"""

from __future__ import annotations

import heapq
import time

#: the scale host metrics are reported in: about the kernel's seconds on
#: an idle 2-core x86-64 host under CPython 3.11.  Fixed for good, so
#: runs on different days and commits compare.
REFERENCE_S = 0.0135
KERNEL_STEPS = 20_000


def kernel(steps: int = KERNEL_STEPS) -> int:
    heap: list = []
    state: dict = {}

    def task(k):
        while True:
            state[k] = state.get(k, 0) + 1
            yield k

    tasks = [task(k) for k in range(64)]
    for i in range(steps):
        heapq.heappush(heap, ((i * 7919) % 997, i))
        if len(heap) > 128:
            _, j = heapq.heappop(heap)
            next(tasks[j % 64])
    return sum(state.values())


def sample(runs: int = 2) -> float:
    """Mean seconds per kernel run over ``runs`` back-to-back runs."""
    t = time.perf_counter()
    for _ in range(runs):
        kernel()
    return (time.perf_counter() - t) / runs


def scaled(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` at the reference pace.

    ``samples`` are ``(clock, kernel seconds)`` in clock order.  Between
    two samples the host ran at the mean of their readings; after the
    last one, at its reading.
    """
    total = 0.0
    for i, (at, secs) in enumerate(samples):
        if i + 1 < len(samples):
            until, next_secs = samples[i + 1]
            secs = (secs + next_secs) / 2
        else:
            until = end
        overlap = min(end, until) - max(start, at)
        if overlap > 0:
            total += overlap * REFERENCE_S / secs
    return total
