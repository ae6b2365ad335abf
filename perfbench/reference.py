"""Fixed pure-Python reference loop used to cancel machine drift.

On a host with shared cores the interpreter's speed switches between
states that last seconds to tens of seconds, so a raw ns/symbol figure
does not repeat from one process to the next.  Every timed repetition is
therefore paired with one run of this loop, and a timing is reported as
``raw / reference * NOMINAL_REF_NS``: the time the repetition would have
taken had the reference loop run at its nominal speed.

The loop imports nothing from rangekit, so a change to rangekit cannot
move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

REF_ITERS = 900

#: Frozen scale for normalised timings, near the loop's time on the host
#: the benchmark was tuned on (2 shared x86-64 cores, CPython 3.11), where
#: it took 18-30 ms between the fast and slow states.  Changing it
#: rescales every normalised figure.
NOMINAL_REF_NS = 25_000_000


def reference_loop(iters: int = REF_ITERS) -> int:
    """Two list-sweep kernels: a range increment and a while-loop scatter.

    These are the shapes of the linear-model update and the table repair;
    on the tuning host this loop followed the codec's fast and slow states
    at least as closely as an arithmetic and method-call loop did (see
    README.md).
    """
    hk = list(range(257))
    t = [0] * (258 + iters)
    for r in range(iters):
        lo = (r * 37) & 127
        for j in range(lo, 257):
            hk[j] += 1
        i = lo
        while i < 256:
            t[hk[i + 1] - 1] = i
            i += 1
    return hk[256]


def time_reference() -> int:
    """Wall time of one reference-loop run in ns."""
    t0 = perf_counter_ns()
    reference_loop()
    return perf_counter_ns() - t0


class Paired:
    """Timed repetitions of one quantity, each paired with a reference run."""

    __slots__ = ("raw", "ref")

    def __init__(self):
        self.raw: list[float] = []
        self.ref: list[int] = []

    def add(self, raw: float, ref_ns: int) -> None:
        self.raw.append(raw)
        self.ref.append(ref_ns)

    def __len__(self) -> int:
        return len(self.raw)

    def normalised(self) -> list[float]:
        return [r / f * NOMINAL_REF_NS for r, f in zip(self.raw, self.ref)]

    def median(self) -> float:
        """Median of the normalised values (drift-corrected)."""
        return statistics.median(self.normalised())

    def raw_median(self) -> float:
        return statistics.median(self.raw)
