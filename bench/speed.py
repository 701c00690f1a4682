"""Machine-speed sampling, to take other tenants' load out of timings.

On a shared host the same code runs at different speeds from one moment to
the next, as other machines load the cores; on the machine these bounds
were set on, the speed flips between two levels about 1.8x apart many times
a second, and the share of slow time drifts over minutes.  A SpeedMeter
runs a fixed reference loop from a timer signal every few milliseconds
while items run; how long the reference took around an item measures how
slow the machine was while that item ran.
"""

import bisect
import signal
import time

# reference loop cost on an unloaded core of the machine the bounds were
# set on (an Intel Xeon vCPU, Python 3.11); timings are rescaled to it
REFERENCE_COST_S = 15e-6


class _Point:
    __slots__ = ("x", "z")

    def __init__(self, x: int, z: int):
        self.x = x
        self.z = z


def reference() -> int:
    """A fixed mix of the interpreter work the package does: small objects,
    attribute reads, tuple keys, dict updates and integer bit operations."""
    table: dict = {}
    acc = 0
    for i in range(24):
        p = _Point(i * 7919 & 1023, i * 104729 & 1023)
        key = (p.x, p.z)
        table[key] = table.get(key, 0) + (p.x & p.z).bit_count()
        acc += ((i * 2654435761) & 0x5A5A5A).bit_count() + len(table)
    return acc


class SpeedMeter:
    def __init__(self, interval_s: float = 0.005):
        self.interval = interval_s
        self.starts: list[float] = []
        self.costs: list[float] = []
        self.spent = 0.0  # seconds spent in the timer handler so far

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        # the first pass warms the caches the interrupted code left cold,
        # so that the timed second pass sees only the machine's speed
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        reference()
        t2 = time.perf_counter()
        self.starts.append(t1)
        self.costs.append(t2 - t1)
        self.spent += t2 - t0

    def scale(self, a: float = None, b: float = None) -> float:
        """Factor that rescales time spent in [a, b) to the reference speed,
        from the samples taken in it (or the first one after it); from all
        samples when no interval is given."""
        costs = self.costs
        if a is not None:
            lo = bisect.bisect_left(self.starts, a)
            hi = bisect.bisect_right(self.starts, b)
            costs = costs[min(lo, len(costs) - 1):max(hi, lo + 1)]
        return REFERENCE_COST_S * len(costs) / sum(costs) if costs else 1.0
