"""Host-speed reference for normalising timings.

On a shared 2-CPU host the same deterministic call was measured running
up to 1.8x slower for stretches from under a second to minutes (another
tenant on the same physical core), and a fixed pure-Python loop slowed by
the same factor.  Timings are therefore reported normalised: the reference
loop runs between ops, and an op's time is scaled by ``NOMINAL_S`` over the
mean reference time within ``WINDOW_S`` of the op.  The window tracks slow
changes and averages out fast ones.  The loop uses no repliq code, so a
change to repliq does not move it.
"""

import heapq
import statistics
from time import perf_counter

# time of the reference loop on an uncontended 2.0 GHz Xeon core (Python 3.11)
NOMINAL_S = 0.019
WINDOW_S = 5.0


def _loop():
    table = {}
    heap = []
    x = 0.0
    for i in range(20_000):
        key = (i, i * 0.5)
        table[key] = x
        x += key[1] * 1.0000001
        heapq.heappush(heap, (x % 97.0, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return x


def sample():
    """(midpoint time, seconds) of one run of the reference loop."""
    start = perf_counter()
    _loop()
    end = perf_counter()
    return (start + end) / 2, end - start


def scale(refs, t0, t1):
    """Factor turning seconds measured over [t0, t1] into nominal-host
    seconds, from the reference samples within WINDOW_S of that interval."""
    near = [s for t, s in refs if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
    return NOMINAL_S / statistics.mean(near)
