"""Binary-indexed (Fenwick) cumulative-count model.

Cumulative counts are stored implicitly in a hierarchical array ``v``:
each entry covers a power-of-two span and a cumulative count is the sum
of ``v`` along the chain obtained by repeatedly clearing the lowest set
bit.  Queries and updates are O(log K) instead of O(K); the array is
built in O(K) from the checked prefix sums of ``linear_model.prefix_sums``.

The two rescale variants, ``rescale_orig`` and the cheaper ``rescale_new``,
round differently and are NOT interchangeable mid-stream.
"""

from __future__ import annotations

from . import linear_model

#: The rescale variants, ``rescale_orig`` and ``rescale_new``.
RESCALES = ("orig", "new")


def top_level_index(k: int) -> int:
    """Root probe position: half of the smallest power of two > k."""
    if k < 1:
        raise ValueError("invalid alphabet size")
    return 1 << (k.bit_length() - 1)


def forward_step(i: int) -> int:
    """Lowest set bit of i; the stride to the next entry on the update chain."""
    return i & -i


def parent_index(i: int) -> int:
    """i with its lowest set bit cleared; the next entry on the query chain."""
    return i & (i - 1)


class FenwickModel:
    """Hierarchical cumulative-count array with O(log K) query/update.

    ``v`` has K+1 slots; slot 0 is permanently 0 (the lower boundary of
    symbol 0 never moves).  ``total_count`` mirrors the full prefix sum so
    the top of the array never has to be queried.

    The access counters are split by operation kind; perfbench's traced
    decode reads them (``DecodeStats`` derives the same counts without a
    model).  A walk ticks once per statement that reads or writes ``v``
    (repeated reads of one slot in a statement coalesce).  A rescale
    touches the same slots whatever the counts, so it adds its per-K
    total, ``rescale_cost``, once.
    """

    __slots__ = (
        "k", "v", "total_count", "top_lev_idx", "adaptive", "rescale_variant",
        "query_accesses", "update_accesses", "rescale_accesses",
    )

    def __init__(self, counts, adaptive: bool = True, rescale_variant: str = "orig"):
        counts, hk = linear_model.prefix_sums(counts, adaptive)
        if rescale_variant not in RESCALES:
            raise ValueError(f"unknown rescale variant: {rescale_variant!r}")
        self.k = len(counts)
        self.v = [hk[i] - hk[i & (i - 1)] for i in range(self.k + 1)]
        self.total_count = hk[-1]
        self.top_lev_idx = top_level_index(self.k)
        self.adaptive = adaptive
        self.rescale_variant = rescale_variant
        self.query_accesses = 0
        self.update_accesses = 0
        self.rescale_accesses = 0

    @classmethod
    def flat(cls, k: int, rescale_variant: str = "orig") -> "FenwickModel":
        return cls([1] * k, rescale_variant=rescale_variant)

    def cum(self, i: int) -> int:
        """Cumulative count ``h_k[i]``: sum of v along the parent chain."""
        if not 0 <= i <= self.k:
            raise IndexError("boundary index out of range")
        s = 0
        v = self.v
        n = 0
        while i > 0:
            s += v[i]
            i &= i - 1
            n += 1
        self.query_accesses += n
        return s

    def count(self, sym: int) -> int:
        """Single count ``h[sym]`` via the predecessor-subtraction walk."""
        i = sym + 1
        v = self.v
        h = v[i]
        n = 1
        parent = i & (i - 1)
        i -= 1
        while parent != i:
            h -= v[i]
            n += 1
            i &= i - 1
        self.query_accesses += n
        return h

    def update(self, sym: int) -> bool:
        """Increment the count of ``sym``; returns True if a rescale fired.

        A symbol outside [0, K) raises IndexError and leaves the model as
        it was."""
        if not self.adaptive:
            raise ValueError("static model cannot be updated")
        # from a negative symbol the chain would climb to 0 and stay
        # there: lowbit(0) is 0
        if not 0 <= sym < self.k:
            raise IndexError("symbol out of range")
        rescaled = False
        if self.total_count >= linear_model.MAX_TOTALCOUNT:
            self.rescale()
            rescaled = True
        v = self.v
        k = self.k
        i = sym + 1
        n = 0
        while i <= k:
            v[i] += 1
            i += i & -i
            n += 1
        self.update_accesses += n
        self.total_count += 1
        return rescaled

    def rescale(self) -> None:
        if self.rescale_variant == "new":
            self.rescale_new()
        else:
            self.rescale_orig()

    def rescale_orig(self) -> None:
        """Per-symbol rescale: every count goes from h to ceil(h/2).

        For each symbol the count is derived, halved, and the halving is
        subtracted along the whole update chain, so the cost grows with
        K log K.  Bit-identical to LinearModel.rescale.
        """
        v = self.v
        k = self.k
        for i in range(1, k + 1):
            # the count of symbol i - 1, by count's predecessor walk
            h = v[i]
            parent = i & (i - 1)
            j = i - 1
            while j != parent:
                h -= v[j]
                j &= j - 1
            h >>= 1
            j = i
            while j <= k:
                v[j] -= h
                j += j & -j
        self.total_count = self._total()
        self.rescale_accesses += rescale_cost(k, "orig")

    def rescale_new(self) -> None:
        """Single ascending pass that halves the v entries in place.

        Odd slots hold a bare count and halve independently.  An even slot
        must stay strictly above the sum of its already-halved lower
        siblings (otherwise an implied count would drop to zero), so the
        halved value is clamped from below.  Rounds differently from
        rescale_orig; streams must stick to one variant.
        """
        v = self.v
        k = self.k
        for i in range(1, k + 1):
            if i & 1:
                v[i] -= v[i] >> 1
            else:
                test_val = v[i] - (v[i] >> 1)
                # one more than the already-halved lower siblings: v[i - 1]
                # and on, clearing low bits, down to the parent of i
                parent = i - (i & -i)
                j = i - 1
                floor = 1
                while j != parent:
                    floor += v[j]
                    j &= j - 1
                v[i] = floor if floor > test_val else test_val
        self.total_count = self._total()
        self.rescale_accesses += rescale_cost(k, "new")

    def _total(self) -> int:
        """``cum(K)``, untallied: a rescale's tally counts its reads."""
        v = self.v
        s = 0
        i = self.k
        while i > 0:
            s += v[i]
            i &= i - 1
        return s


def rescale_cost(k: int, variant: str) -> int:
    """The accesses a rescale of K counts tallies, by its variant."""
    if variant == "new":
        # one per odd slot, two per even slot, one per sibling read
        # (trailing-zeros(i) for slot i, k - popcount(k) in all) and the
        # total's popcount(k) reads
        return (k + 1) // 2 + 2 * (k // 2) + k
    # per symbol: the read of v[i], one per step down to the parent
    # (k - popcount(k) in all) and one per chain entry (node j is on the
    # chains of lowbit(j) symbols); then the total's popcount(k)
    return 2 * k + _lowbit_sum(k)


def _lowbit_sum(k: int) -> int:
    """Sum of lowbit(j) for j = 1..k: k >> b - k >> (b + 1) of them have
    lowbit 2**b."""
    return sum(((k >> b) - (k >> (b + 1))) << b for b in range(k.bit_length()))
