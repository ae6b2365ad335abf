"""Order-0 frequency model with an explicit cumulative-count array.

The model keeps the per-symbol counts and their exclusive prefix sums side
by side, so a cumulative count is a single list read and an update is a
linear sweep over the tail of the prefix-sum list.
"""

from __future__ import annotations

from itertools import accumulate

MAX_TOTALCOUNT = 1 << 20


def check_total(total: int) -> None:
    """Raise OverflowError if a total exceeds the cap as it stands: the
    check of ``prefix_sums``, and the error of the compiled loops' own."""
    if total > MAX_TOTALCOUNT:
        raise OverflowError(f"total count {total} exceeds MAX_TOTALCOUNT="
                            f"{MAX_TOTALCOUNT}; caller must pre-normalize")


def rescale_cost(k: int) -> int:
    """The accesses ``LinearModel.rescale`` tallies for K counts."""
    return 3 * k


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
    check_total(hk[-1])
    return counts, hk


class LinearModel:
    """Symbol counts plus their exclusive prefix sums.

    The prefix-sum array ``hk`` has K+1 entries: ``hk[0]`` is always 0,
    ``hk[i+1] == hk[i] + h[i]`` and ``hk[K]`` equals ``total_count``.
    ``hk[i]`` is the lower interval boundary of symbol i.

    Callers index ``h`` and ``hk`` and may hold them across updates and
    rescales, which change them in place; they must never rebind or
    resize them.

    In adaptive mode every count stays >= 1 so no subinterval collapses;
    static models may carry zero counts for symbols known to be absent.
    """

    __slots__ = (
        "k", "h", "hk", "total_count", "adaptive",
        "update_accesses", "rescale_accesses",
    )

    def __init__(self, counts, adaptive: bool = True):
        counts, hk = prefix_sums(counts, adaptive)
        self.k = len(counts)
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

        All boundaries above the symbol move up by one: K - sym writes.
        A symbol outside [0, K) raises IndexError and leaves the model as
        it was.
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
        hk = self.hk
        for j in range(sym + 1, self.k + 1):
            hk[j] += 1
        self.update_accesses += self.k - sym + 1
        self.total_count += 1
        return rescaled

    def rescale(self) -> None:
        """Halve every count in place, rounding up so none reaches zero."""
        h = self.h
        h[:] = [c - (c >> 1) for c in h]
        hk = self.hk
        hk[1:] = accumulate(h)
        self.rescale_accesses += rescale_cost(self.k)
        self.total_count = hk[-1]
