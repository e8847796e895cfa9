"""Request times at a fixed reference speed.

On the 2-core x86-64 machine this benchmark was written on, a fixed
pure-Python loop runs at speeds up to 1.8x apart, in CPU time as much as
in wall time.  The speed switches within seconds and at times stays low
for minutes, so whole runs of the same code differ by that factor.  How
much a piece of code slows depends on its work: code that stays in the
core's own caches slows the most, code that mostly waits on a large heap
the least.

So while a run measures, an interval timer on the process's CPU time
interrupts it every SAMPLE_EVERY_S and times one of a few fixed loops in
turn, each shaped like one kind of work (LOOPS).  A span's time at
reference speed is its wall time, less the sampler's own time inside it,
times its loop's nominal time over the median time of that loop's samples
within WINDOW_NS of the span.  A change to qform moves this time as it
moves the wall time; a change of machine speed moves the loop with it and
cancels.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

SAMPLE_EVERY_S = 0.02  # of process CPU time
WINDOW_NS = 500_000_000  # samples this close to a span count for it
HEAP_ROWS = 150_000  # about 29 MB: far past the 2 MB of L2 cache per core


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def objects():
    """Small matrices as lists, a dict with tuple keys, slotted objects, a sort."""
    n = 6
    m = [[(i * 7 + j * 3) % 11 - 5 for j in range(n)] for i in range(n)]
    for _ in range(4):
        m = [[sum(r[k] * c[k] for k in range(n)) % 1000003 for c in zip(*m)] for r in m]
    d = {}
    for i in range(150):
        d[i % 13, i % 7] = _Pair(i, str(i))
    return len(sorted(d, key=lambda k: d[k].a)) + m[0][0]


def integers():
    """Arithmetic on machine-sized integers, as in trial division."""
    x = 0
    for i in range(2000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return x


_HEAP = []


def heap():
    """Reads scattered over a heap of HEAP_ROWS small lists."""
    rows = _HEAP
    n = len(rows)
    s, j = 0, 12345
    for _ in range(2500):
        j = (j * 1103515245 + 12345) % n
        r = rows[j]
        s += r[0] + r[2]
    return s


# each loop with its nominal time: about its median inside benchmark runs
# on a 2-core x86-64 machine with CPython 3.11, so that times at reference
# speed come out close to wall-clock times there
LOOPS = {"objects": (objects, 450_000), "integers": (integers, 270_000), "heap": (heap, 650_000)}


class Sampler:
    """Times the loops ``names`` in turn from a CPU-time interval timer."""

    def __init__(self, names):
        self.names = sorted(names)
        self.starts = {name: array("q") for name in self.names}
        self.durations = {name: array("q") for name in self.names}
        self.ticks = 0
        if "heap" in self.names and not _HEAP:
            _HEAP.extend([i, 3 * i, 7 * i] for i in range(HEAP_ROWS))

    def _sample(self, signum, frame):
        name = self.names[self.ticks % len(self.names)]
        self.ticks += 1
        t0 = time.perf_counter_ns()
        LOOPS[name][0]()
        t1 = time.perf_counter_ns()
        self.starts[name].append(t0)
        self.durations[name].append(t1 - t0)

    def start(self):
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def slowdown(self, name, start_ns, end_ns):
        """Median time of loop ``name`` near [start_ns, end_ns) over its nominal time."""
        starts, durations = self.starts[name], self.durations[name]
        lo = bisect.bisect_left(starts, start_ns - WINDOW_NS)
        hi = bisect.bisect_left(starts, end_ns + WINDOW_NS)
        if lo == hi:  # nothing close: the nearest sample
            if not starts:
                raise ValueError("no samples of %s" % name)
            lo = min(lo, len(starts) - 1)
            if lo > 0 and start_ns - starts[lo - 1] < starts[lo] - end_ns:
                lo -= 1
            hi = lo + 1
        return statistics.median(durations[lo:hi]) / LOOPS[name][1]

    def scaled_s(self, name, start_ns, end_ns):
        """Seconds of [start_ns, end_ns) at loop ``name``'s reference speed, less the sampler's time."""
        own = end_ns - start_ns
        for n in self.names:
            a = bisect.bisect_left(self.starts[n], start_ns)
            b = bisect.bisect_left(self.starts[n], end_ns)
            own -= sum(self.durations[n][a:b])
        return own / self.slowdown(name, start_ns, end_ns) / 1e9
