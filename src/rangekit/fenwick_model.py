"""Binary-indexed (Fenwick) cumulative-count model.

Cumulative counts are stored implicitly in a hierarchical array ``v``:
each entry covers a power-of-two span and a cumulative count is the sum
of ``v`` along the chain obtained by repeatedly clearing the lowest set
bit.  Queries and updates are O(log K) instead of O(K).  The array is built
in O(K), as ``v[i] = hk[i] - hk[i & (i - 1)]`` (``v[0]`` is 0), from the
prefix sums of ``linear_model.prefix_sums``, the one check of the counts.

An adaptive stream codes a symbol with one call that also updates,
``decode_walk`` or ``encode_walk``; ``cum``, ``count`` and ``update`` are
their reference.  The descent runs down a ladder of probe strides built
once per model, and ``update`` raises a chain of indices cached per symbol
on its first update, so neither keeps per-probe bookkeeping.

Two rescaling procedures are provided.  The original one halves each
symbol count and pushes the correction through the update chain; the
cheaper single-pass variant halves the ``v`` entries directly, clamping
even-index entries so every implied count stays >= 1.  The two variants
round differently and are NOT interchangeable mid-stream.
"""

from __future__ import annotations

from array import array

from .linear_model import MAX_TOTALCOUNT, prefix_sums


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

    Instrumentation counters are split by operation kind so the bench
    harness can report update and rescale work separately.  A walk ticks
    once per statement that reads or writes ``v`` (repeated reads of the
    same slot inside one statement coalesce).  A rescale touches the same
    slots whatever the counts, so it adds its per-K total, equal to the
    per-statement tally of its loops, once.

    ``_chains[sym]``, made on the first update of ``sym``, is its update
    chain ``sym + 1, +lowbit, ...`` as an ``array('I')``; a chain holds
    indices, not values, so it stays valid across rescales.
    """

    __slots__ = (
        "k", "v", "total_count", "top_lev_idx", "adaptive", "rescale_variant",
        "query_accesses", "update_accesses", "rescale_accesses",
        "_steps", "_chains",
    )

    def __init__(self, counts, adaptive: bool = True, rescale_variant: str = "orig"):
        counts, hk = prefix_sums(counts, adaptive)
        if rescale_variant not in ("orig", "new"):
            raise ValueError(f"unknown rescale variant: {rescale_variant!r}")
        self.k = len(counts)
        self.v = [hk[i] - hk[i & (i - 1)] for i in range(self.k + 1)]
        self.total_count = hk[-1]
        self.top_lev_idx = top_level_index(self.k)
        # the descent's probe strides: top_lev_idx, top_lev_idx / 2, ..., 1
        self._steps = tuple(self.top_lev_idx >> s
                            for s in range(self.top_lev_idx.bit_length()))
        # all K chains take 7.25 MiB at K = 65536, so each is made on its
        # symbol's first update
        self._chains = [None] * self.k if adaptive else None
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
        """Increment the count of ``sym``; returns True if a rescale fired."""
        if not self.adaptive:
            raise ValueError("static model cannot be updated")
        rescaled = False
        if self.total_count >= MAX_TOTALCOUNT:
            self.rescale()
            rescaled = True
        chain = self._chains[sym]
        if chain is None:
            chain = self._chains[sym] = self._chain(sym)
        v = self.v
        for i in chain:
            v[i] += 1
        self.update_accesses += len(chain)
        self.total_count += 1
        return rescaled

    def _chain(self, sym: int) -> array:
        """The update chain of ``sym``: i = sym + 1, i + lowbit(i), ... <= K."""
        k = self.k
        # below 0 the chain would never end: lowbit(0) is 0
        if not 0 <= sym < k:
            raise IndexError("symbol out of range")
        i = sym + 1
        chain = []
        while i <= k:
            chain.append(i)
            i += i & -i
        # from a list, so the array is allocated at its exact size
        return array("I", chain)

    def decode_walk(self, c: int) -> tuple[int, int, int]:
        """``binary_indexed_interval(c)`` plus ``update(symbol)`` in one
        descent: the probes it does not take are the nodes ``update``
        raises.  At the count cap, where ``update`` rescales first, the
        descent raises nothing and ``update`` follows.

        ``c`` drops by every probe taken, so the interval's low end is
        what it dropped by; ``f`` is the width above ``c`` of the last
        probe not taken (of ``total`` if none), so the frequency is
        ``f + c`` with ``c`` as it ends."""
        v = self.v
        k = self.k
        total = self.total_count
        inc = 1 if total < MAX_TOTALCOUNT and self.adaptive else 0
        c0 = c
        f = total - c
        bottom = n = 0
        for step in self._steps:
            test = bottom + step
            if test <= k:
                x = v[test]
                if c >= x:
                    bottom = test
                    c -= x
                else:
                    f = x - c
                    v[test] = x + inc
                    n += 1
        if inc:
            self.update_accesses += n
            self.total_count = total + 1
        else:
            self.update(bottom)
        return bottom, c0 - c, f + c

    def encode_walk(self, sym: int) -> tuple[int, int]:
        """``(cum(sym), count(sym))`` from one walk, then ``update(sym)``:
        ``count``'s walk down to the parent of ``sym + 1`` starts ``cum``'s."""
        v = self.v
        parent = (sym + 1) & sym
        j = sym
        low = 0
        while j != parent:
            low += v[j]
            j &= j - 1
        freq = v[sym + 1] - low
        while j:
            low += v[j]
            j &= j - 1
        self.update(sym)
        return low, freq

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
        # per symbol: the read of v[i], one per step down to the parent
        # (k - popcount(k) in all) and one per chain entry (node j is on
        # the chains of lowbit(j) symbols); then the total's popcount(k)
        self.rescale_accesses += 2 * k + _lowbit_sum(k)

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
        # one per odd slot, two per even slot, one per sibling read
        # (trailing-zeros(i) for slot i, k - popcount(k) in all) and the
        # total's popcount(k) reads
        self.rescale_accesses += (k + 1) // 2 + 2 * (k // 2) + k

    def _total(self) -> int:
        """``cum(K)``, untallied: a rescale's tally counts its reads."""
        v = self.v
        s = 0
        i = self.k
        while i > 0:
            s += v[i]
            i &= i - 1
        return s


def _lowbit_sum(k: int) -> int:
    """Sum of lowbit(j) for j = 1..k: k >> b - k >> (b + 1) of them have
    lowbit 2**b."""
    return sum(((k >> b) - (k >> (b + 1))) << b for b in range(k.bit_length()))
