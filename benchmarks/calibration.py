"""Reference seconds: measured time corrected for the host's speed.

On a shared 2-core VM (Intel Xeon, Python 3.11.7) the speed of one process
swung by up to 1.8x, within seconds and over minutes, and raw medians of two
sets of runs differed by more than any useful bound.  So while the benchmark runs, a timer interrupts it every PROBE_EVERY_S and
times a fixed probe (``Fraction`` and dict work on a 13 MB working set, no
socle code).  A timed call then counts as

    (its wall time - the probe time inside it) * PROBE_REF_S / (mean probe time)

reference seconds, the mean taken over the probes that ran during the call
(or the last MIN_PROBES before it, when the call was too short to be
interrupted that often), outliers left out (see ``host_probe_s``).  A
reference second is a second on a host where the probe takes PROBE_REF_S.
The working set matters: a probe that fits in a core's cache slows less
than the library does when neighbours contend for the shared caches.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction
from typing import List, Tuple

PROBE_REF_S = 0.004
PROBE_EVERY_S = 0.05
MIN_PROBES = 3


class Probe:
    """A fixed slice of sparse ``Fraction`` row work, independent of socle.

    Seeded sparse columns, well past the per-core caches like the library's
    elimination, are combined pairwise in a fixed order.
    """

    COLUMNS, ROWS, ENTRIES, STEPS = 2000, 10000, 40, 25

    def __init__(self):
        rng = random.Random(20161)
        self.columns = [
            {r: Fraction(rng.randint(1, 99), rng.randint(1, 99))
             for r in rng.sample(range(self.ROWS), self.ENTRIES)}
            for _ in range(self.COLUMNS)
        ]
        self.steps = [
            (rng.randrange(self.COLUMNS), rng.randrange(self.COLUMNS))
            for _ in range(self.STEPS)
        ]

    def __call__(self) -> float:
        """Run the probe once; its wall time in seconds."""
        start = time.perf_counter()
        for a, b in self.steps:
            v, w = dict(self.columns[a]), self.columns[b]
            c = next(iter(w.values()))
            for r, x in w.items():
                s = v.get(r, 0) - c * x
                if s:
                    v[r] = s
                else:
                    v.pop(r, None)
        return time.perf_counter() - start


class Sampler:
    """Times the probe from a SIGALRM handler every PROBE_EVERY_S while
    active (``with sampler:``), and converts timed calls to reference seconds.

    Signals reach Python in the main thread only, between bytecodes; the
    benchmark is single-threaded.
    """

    def __init__(self):
        self.probe = Probe()
        self.samples: List[float] = []
        self.spent = 0.0  # total probe time so far
        self._saved_handler = None
        for _ in range(MIN_PROBES):
            self._sample()

    def _sample(self, *_signal_args) -> None:
        took = self.probe()
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self._saved_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved_handler)
        return False

    def time(self, fn) -> Tuple[object, float, float]:
        """(fn(), wall seconds, reference seconds) of one call."""
        first, spent = len(self.samples), self.spent
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        own = wall - (self.spent - spent)
        during = self.samples[first:]
        if len(during) < MIN_PROBES:
            during = self.samples[-MIN_PROBES:]
        return result, wall, own * PROBE_REF_S / host_probe_s(during)


def host_probe_s(samples: List[float]) -> float:
    """Mean probe time, leaving out probes that took over twice the median.

    Such a probe was held up by something other than the host's speed, such
    as a garbage collection that its own allocations set off over the
    library's heap.
    """
    limit = 2 * statistics.median(samples)
    return statistics.fmean(t for t in samples if t <= limit)
