"""Machine-speed probe that runs inside the measured process.

The benchmark's host is a small VM whose vCPUs share physical cores with
other tenants. Its speed swings by up to 1.8x, in spells of a few seconds to
minutes: a fixed pure-Python A* took 1.0 ms in one spell and 1.8 ms in the
next, with no CPU steal and no page faults, and the program's ops moved with
it. Wall time alone then measures the neighbours.

The probe times a fixed piece of work on a SIGALRM every ``INTERVAL``
seconds, between the bytecodes of whatever the program is running: an A* on a
fixed grid (heap, dict and tuple work like the planner's travel-time oracle)
whose every relaxation also reads a random byte of a 4 MiB table, far larger
than a core's L2 cache, as the program's travel and line-of-sight caches are.
Without those reads the probe slowed more than the program did in a slow
spell (log-log slopes 0.64 to 0.78 against op time); with them, 0.86 to 1.22.
An op's time is then rescaled to the probe's reference speed:

    normalized = (wall - probe time inside it) * REFERENCE_S / median(probe samples inside it)

The probe's code is part of the benchmark, not of the program, so a change
to the program does not change its reference work. It starts no thread or
process, and it allocates only short-lived objects.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
from time import perf_counter

INTERVAL = 0.1        # seconds between probes
REFERENCE_S = 2.0e-3  # probe time that defines "reference speed"

SIZE = 32
WALLS = frozenset((x, y) for x in range(4, SIZE - 4, 6) for y in range(SIZE) if (x + y) % 11)
TABLE_BITS = 22
TABLE = bytearray(random.Random(0).randbytes(1 << TABLE_BITS))  # real pages, not the zero page


def reference_work() -> int:
    """A* from corner to corner of a fixed 32x32 grid with wall rows; each
    relaxation also reads one pseudo-random byte of TABLE."""
    start, goal = (0, 0), (SIZE - 1, SIZE - 1)
    g = {start: 0.0}
    came = {}
    heap = [(0.0, start)]
    table, mask, i = TABLE, (1 << TABLE_BITS) - 1, 0
    while heap:
        _, cur = heapq.heappop(heap)
        if cur == goal:
            break
        x, y = cur
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if not (0 <= nb[0] < SIZE and 0 <= nb[1] < SIZE) or nb in WALLS:
                continue
            i = (i * 1103515245 + 12345) & mask
            ng = g[cur] + 1.0 + table[i] * 0.0
            if ng < g.get(nb, 1e18):
                g[nb] = ng
                came[nb] = cur
                heapq.heappush(heap, (ng + abs(goal[0] - nb[0]) + abs(goal[1] - nb[1]), nb))
    return len(came)


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []  # probe durations, seconds
        self.spent = 0.0                # total probe time so far, seconds

    def sample(self) -> None:
        t0 = perf_counter()
        reference_work()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """perf_counter() minus the probe's own time: the program's clock."""
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:
                return now - spent

    def mark(self) -> int:
        return len(self.samples)

    def scale_since(self, mark: int, min_samples: int = 5) -> float:
        """REFERENCE_S / median probe time since `mark`; probes explicitly
        until there are `min_samples` samples to take the median of."""
        while len(self.samples) - mark < min_samples:
            self.sample()
        return REFERENCE_S / statistics.median(self.samples[mark:])
