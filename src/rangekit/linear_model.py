"""Order-0 frequency model with an explicit cumulative-count array.

The model keeps the per-symbol counts and their exclusive prefix sums side
by side, so a cumulative count is a single array read and an update is a
linear sweep over the tail of the prefix-sum array.

The storage of the prefix sums is chosen once, at construction.  It is a
list, which is read fastest, except in an adaptive model with at least
``_ARRAY_MIN_K`` symbols: there it is an ``array('q')`` whose tail an
update raises with one ``np.add`` into a numpy view of its buffer.  Each
symbol's tail view is made on its first update and kept, so an update
builds no slice and converts no scalar.
"""

from __future__ import annotations

from array import array
from itertools import accumulate

import numpy as np

MAX_TOTALCOUNT = 1 << 20

#: Smallest alphabet whose adaptive model keeps ``hk`` as an array.  This
#: tunes the Python stream loops, the reference and the fallback where the
#: compiled loops did not load; the compiled loops run on copies of their
#: own.  An update's ``np.add`` on a cached tail view costs about 0.4-0.7
#: us at any length against about 50 ns per interpreted ``hk[j] += 1``, but
#: an array item read costs about twice a list read.  Measured end to end
#: by ``scripts/linear_storage_crossover.py`` (encode plus decode, 8192
#: symbols, rescale every 1024, CPython 3.11 on an Intel Xeon core), the
#: array/list time (ratio of mins / median ratio of 15 rounds) on flat data
#: with ``table`` search is 1.40/1.29 at K=8, 1.07/1.01 at K=16, 0.92/0.90
#: at K=24 (1.00/0.97 in a second run) and 0.85/0.91 at K=32; on geometric
#: data with ``log`` search the array already wins at K=16 (0.90/0.87).
#: From K=32 up the array is faster on both.
_ARRAY_MIN_K = 32

# ``update``'s increment: a read-only 0-d int64 one, which ``np.add``
# broadcasts over a tail without converting a Python int per call
_ONE = np.ones((), dtype=np.int64)
_ONE.flags.writeable = False


def prefix_sums(counts, adaptive: bool) -> tuple[list[int], list[int]]:
    """Checked counts and their exclusive prefix sums ``hk`` (K+1 entries):
    the one check of a count vector, which both count models build from."""
    counts = list(counts)
    if not counts:
        raise ValueError("alphabet must contain at least one symbol")
    least = min(counts)
    if least < 0:
        raise ValueError("counts must be non-negative")
    if adaptive and least == 0:
        raise ValueError("adaptive mode requires every count >= 1")
    hk = list(accumulate(counts, initial=0))
    if hk[-1] > MAX_TOTALCOUNT:
        raise OverflowError(f"total count {hk[-1]} exceeds MAX_TOTALCOUNT="
                            f"{MAX_TOTALCOUNT}; caller must pre-normalize")
    return counts, hk


class LinearModel:
    """Symbol counts plus their exclusive prefix sums.

    The prefix-sum array ``hk`` has K+1 entries: ``hk[0]`` is always 0,
    ``hk[i+1] == hk[i] + h[i]`` and ``hk[K]`` equals ``total_count``.
    ``hk[i]`` is the lower interval boundary of symbol i.

    ``hk`` is a list, or an ``array('q')`` in an adaptive model with K >=
    ``_ARRAY_MIN_K``.  Callers index it and may hold it across updates and
    rescales, which change it in place; they must never rebind or resize
    it (a resize also fails while the array's buffer is exported).  The
    array's tail views, at most one per symbol, alias its buffer, so they
    stay valid across the rescale's same-length slice write.

    In adaptive mode every count stays >= 1 so no subinterval collapses;
    static models may carry zero counts for symbols known to be absent.
    ``prefix_sums`` checks the counts.
    """

    __slots__ = (
        "k", "h", "hk", "total_count", "adaptive",
        "update_accesses", "rescale_accesses", "_tails",
    )

    def __init__(self, counts, adaptive: bool = True):
        counts, hk = prefix_sums(counts, adaptive)
        self.k = len(counts)
        # per symbol, the view of hk[sym + 1:] its update adds one to,
        # made on first use: making all K takes about 0.1 s at K = 65536
        self._tails = None
        if adaptive and self.k >= _ARRAY_MIN_K:
            hk = array("q", hk)
            self._tails = [None] * self.k
        self.h = counts
        self.hk = hk
        self.total_count = hk[-1]
        self.adaptive = adaptive
        # instrumentation: one tick per statement touching h/hk
        self.update_accesses = 0
        self.rescale_accesses = 0

    @classmethod
    def flat(cls, k: int) -> "LinearModel":
        """Adaptive starting point: every symbol gets a count of one."""
        return cls([1] * k)

    def cum(self, i: int) -> int:
        """Cumulative count ``hk[i]`` for a boundary index 0..K."""
        return self.hk[i]

    def count(self, sym: int) -> int:
        return self.h[sym]

    def update(self, sym: int) -> bool:
        """Increment the count of ``sym``; returns True if a rescale fired.

        All boundaries above the symbol move up by one, so the cost is
        K - sym writes.  When the total has reached MAX_TOTALCOUNT the
        model is rescaled before the increment.  A symbol outside [0, K)
        raises IndexError and leaves the model as it was.
        """
        if not self.adaptive:
            raise ValueError("static model cannot be updated")
        # a negative index would wrap, and the tail loop would then raise
        # every boundary, hk[0] included
        if not 0 <= sym < self.k:
            raise IndexError("symbol out of range")
        rescaled = False
        if self.total_count >= MAX_TOTALCOUNT:
            self.rescale()
            rescaled = True
        self.h[sym] += 1
        tails = self._tails
        if tails is None:
            hk = self.hk
            for j in range(sym + 1, self.k + 1):
                hk[j] += 1
        else:
            tail = tails[sym]
            if tail is None:
                tail = tails[sym] = np.frombuffer(self.hk, dtype=np.int64)[sym + 1:]
            np.add(tail, _ONE, tail)
        self.update_accesses += self.k - sym + 1
        self.total_count += 1
        return rescaled

    def rescale(self) -> None:
        """Halve every count (rounding up, so counts never reach zero).

        Both arrays are rewritten in place: callers hold on to ``h`` and
        ``hk`` across a rescale, and the cached tail views keep aliasing
        ``hk``.
        """
        h = self.h
        h[:] = [c - (c >> 1) for c in h]
        hk = self.hk
        # a same-length slice, which an array with an exported buffer
        # allows; a list slice takes the array's items as ints
        hk[1:] = array("q", accumulate(h))
        self.rescale_accesses += 3 * self.k
        self.total_count = hk[-1]
