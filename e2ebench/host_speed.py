"""Host-speed reference for the end-to-end times.

On a shared host the same request can take 1.5x longer from one minute
to the next, and whole runs drift together.  A run therefore also times
a fixed workload that belongs to the benchmark, not to the program: a
pure-Python integer loop.  Its working set fits in the CPU's caches and
it allocates nothing lasting, so its time follows the interpreter's
share of the CPU and the clock it runs at, which is what swings on a
shared host, and not memory latency or the allocator.  Samples are
taken around the set-ups and between requests, one per
``SAMPLE_EVERY_S`` of measuring, and a round's (or a set-up's) raw times
are scaled by ``REFERENCE_S`` over the median sample taken alongside
them.  So the reported values are the seconds the work would take on a
host where the reference takes exactly ``REFERENCE_S`` (unit
``ref_s``).  Raw seconds are printed next to them.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Optional

#: a round figure for the reference's duration on the host the
#: benchmark was tuned on (35-90 ms); fixed, so ``ref_s`` values
#: compare across runs
REFERENCE_S = 0.05
#: one sample is due per this much measured time, so the reference
#: takes about REFERENCE_S / SAMPLE_EVERY_S of a run wherever the
#: requests are long or short
SAMPLE_EVERY_S = 0.5

#: loop iterations in one sample
_ITERATIONS = 500_000


def reference_seconds() -> float:
    """Time one run of the fixed reference workload."""
    start = time.perf_counter()
    total = 0
    for i in range(_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class SpeedSamples:
    """Reference samples taken between the timed steps of a run."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last: Optional[float] = None

    def sample(self) -> None:
        """Take one sample per SAMPLE_EVERY_S measured since the last
        ones; the first call always takes one."""
        if self._last is None:
            self.take(1)
            return
        due = int((time.perf_counter() - self._last) / SAMPLE_EVERY_S)
        if due:
            self.take(due)

    def take(self, count: int) -> None:
        """Take ``count`` samples now."""
        for _ in range(count):
            self.samples.append(reference_seconds())
        self._last = time.perf_counter()

    def scale(self) -> float:
        """Multiply a raw time measured alongside these samples by this to
        get ``ref_s``."""
        return REFERENCE_S / statistics.median(self.samples)
