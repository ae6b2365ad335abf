"""Decoder symbol-identification strategies.

Every strategy answers the same question: given a code value c in
[0, totalCount), find the symbol index i with hk[i] <= c < hk[i+1].
The linear-model strategies operate on the raw boundary array ``hk``
(K+1 entries) and return ``(symbol, iterations)`` so callers can collect
iteration statistics; the binary-indexed strategy works on a FenwickModel
and additionally returns the symbol's interval, which the decoder needs
anyway.

``KERNELS`` is the one place that knows each strategy: which model it
runs on, whether it needs a static model, and how to set it up for one
stream.  Decoding and iteration replay both take their search from it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .fenwick_model import FenwickModel

NO_CHILD = -1


def linear_backward(c: int, hk) -> tuple[int, int]:
    """Scan boundaries from the top down; K - i probes."""
    i = len(hk) - 2
    probes = 1
    while c < hk[i]:
        i -= 1
        probes += 1
    return i, probes


def linear_forward(c: int, hk) -> tuple[int, int]:
    """Scan boundaries from the bottom up; i + 1 probes."""
    i = 1
    while c >= hk[i]:
        i += 1
    return i - 1, i


def logarithmic(c: int, hk) -> tuple[int, int]:
    """Plain bisection over the boundary array; <= ceil(log2 K)+1 iterations."""
    bottom = 0
    top = len(hk) - 1
    iters = 0
    while True:
        iters += 1
        i = (top + bottom) >> 1
        if c < hk[i]:
            top = i
        else:
            bottom = i + 1
        if top == bottom:
            return bottom - 1, iters


def bisection_depths(k: int) -> list[int]:
    """Iterations ``logarithmic`` takes over K symbols, by insertion point.

    With ``p = bisect_right(hk, c)``, the probe ``c < hk[mid]`` holds
    exactly when ``mid >= p``, so the bisection's path, and its length,
    depend on p alone.  Entry p of the result is that length.
    """
    depth = [0] * (k + 1)
    stack = [(0, k, 0)]
    while stack:
        bottom, top, iters = stack.pop()
        if bottom == top:
            depth[bottom] = iters
        else:
            mid = (top + bottom) >> 1
            stack.append((bottom, mid, iters + 1))
            stack.append((mid + 1, top, iters + 1))
    return depth


def best_split(hk, bottom: int, top: int) -> int:
    """Boundary index inside (bottom, top) that best halves the count mass.

    ``2*hk[j] - (hk[bottom] + hk[top])`` never decreases with j, so the
    best j is either the first one reaching the midpoint or the start of
    the plateau just below it.  Ties break toward the smaller index so
    tree construction is deterministic.
    """
    if top - bottom < 2:
        raise ValueError("range has no interior boundary")
    ref = hk[top] + hk[bottom]
    lo = bottom + 1
    above = bisect_left(hk, (ref + 1) >> 1, lo, top)
    if above == lo:
        return above
    below = bisect_left(hk, hk[above - 1], lo, above)
    if above == top or ref - 2 * hk[below] <= 2 * hk[above] - ref:
        return below
    return above


@dataclass
class SearchTree:
    """Static binary search tree over symbol indices (child arrays + root)."""
    left: list[int]
    right: list[int]
    root: int


def build_search_tree(hk) -> SearchTree:
    """Recursively split at the most count-balanced boundary.

    Built iteratively (explicit work stack) because a heavily skewed
    distribution can produce a tree as deep as K.
    """
    k = len(hk) - 1
    left = [NO_CHILD] * k
    right = [NO_CHILD] * k

    def node_for(bottom, top):
        # symbols bottom..top-1; single symbols become leaves
        if top - bottom == 1:
            return bottom
        return best_split(hk, bottom, top)

    root = node_for(0, k)
    stack = [(root, 0, k)]
    while stack:
        j, bottom, top = stack.pop()
        if top - bottom == 1:
            continue
        lc = node_for(bottom, j)
        left[j] = lc
        stack.append((lc, bottom, j))
        if j + 1 < top:
            rc = node_for(j + 1, top)
            right[j] = rc
            stack.append((rc, j + 1, top))
    return SearchTree(left, right, root)


def tree_search(c: int, hk, tree: SearchTree) -> tuple[int, int]:
    """Follow the prepared child arrays; static models only.

    A tree built for stale boundaries silently returns wrong symbols, so
    adaptive coders must not use it.
    """
    i = tree.root
    left = tree.left
    right = tree.right
    iters = 0
    while True:
        iters += 1
        if c < hk[i]:
            i = left[i]
        elif c < hk[i + 1]:
            return i, iters
        else:
            i = right[i]


def determine_initial_split(hk) -> int:
    """Smallest boundary reaching half the total, nudged to the better neighbour."""
    k = len(hk) - 1
    total = hk[k]
    if total < 1:
        raise ValueError("empty model")
    i_mid = 0
    while 2 * hk[i_mid] < total:
        i_mid += 1
    if hk[i_mid] > total - hk[i_mid - 1]:
        i_mid -= 1
    return i_mid


def adapt_initial_split(k: int, i_mid: int, sym: int) -> int:
    """Move the initial split one step after decoding symbol ``sym``.

    Note the branch direction: i_mid < sym decrements.  Clamped to [0, k].
    """
    if i_mid < sym:
        if i_mid > 0:
            i_mid -= 1
    else:
        if i_mid < k:
            i_mid += 1
    return i_mid


def log2_search(c: int, hk, i_mid: int) -> tuple[int, int]:
    """Bisection whose first probe lands at ``i_mid`` instead of K/2."""
    bottom = 0
    top = len(hk) - 1
    i = i_mid
    iters = 0
    while True:
        iters += 1
        if c < hk[i]:
            top = i
        else:
            bottom = i + 1
        i = (top + bottom) >> 1
        if top == bottom:
            return bottom - 1, iters


def exponential(c: int, hk) -> tuple[int, int]:
    """Galloping range pre-selection followed by bisection.

    The doubling phase may overshoot K when K is not a power of two; the
    top bound is clamped before the bisection phase.
    """
    k = len(hk) - 1
    top = 1
    iters = 0
    while top < k and hk[top] <= c:
        top <<= 1
        iters += 1
    bottom = top >> 1
    if top > k:
        top = k
    while True:
        iters += 1
        i = (top + bottom) >> 1
        if c < hk[i]:
            top = i
        else:
            bottom = i + 1
        if top == bottom:
            return bottom - 1, iters


#: A list insert moves one table slot in about 0.5 ns; one interpreted
#: last-slot write takes about 57 ns (CPython 3.11 on an Intel Xeon core),
#: so a write costs as much as moving roughly this many slots.
_INSERT_SLOTS_PER_WRITE = 100


class LookupTable:
    """Code-value-to-symbol map: O(1) lookup, O(K - sym) update.

    Symbol i occupies h[i] consecutive slots, so the table holds
    ``total_count`` entries.  An adaptive increment adds one slot to the
    symbol's run.  The repair either rewrites the last slot of every run
    from the symbol up (K - sym interpreted writes) or inserts the slot
    with one C-level list move of every slot above it; it picks the
    cheaper one from the table size, so the cost stays bounded by the
    K - sym writes however far ``total_count`` grows between rescales.
    """

    __slots__ = ("t",)

    def __init__(self, t: list[int]):
        self.t = t

    @classmethod
    def create(cls, counts) -> "LookupTable":
        if sum(counts) == 0:
            raise ValueError("cannot build lookup table for empty model")
        t: list[int] = []
        for i, h in enumerate(counts):
            if h > 0:  # zero-count symbols own no code values
                t.extend([i] * h)
        return cls(t)

    def lookup(self, c: int) -> int:
        return self.t[c]

    def update(self, hk, sym: int) -> None:
        """Repair the table after the count of ``sym`` was incremented.

        ``hk`` must already reflect the increment, and every count must be
        >= 1, as in adaptive mode.  Exactly the last slot of each run from
        ``sym`` up changes, K - sym slots, the last of them appended.
        Inserting one slot at the end of ``sym``'s run gives the same
        table, because it shifts every later run up by one.
        """
        t = self.t
        idx = hk[sym + 1] - 1
        k = len(hk) - 1
        if len(t) - idx <= _INSERT_SLOTS_PER_WRITE * (k - sym):
            t.insert(idx, sym)
        else:
            for i in range(sym, k - 1):
                t[hk[i + 1] - 1] = i
            t.append(k - 1)


def changed_slots(before, after) -> list[int]:
    """Positions where a table repair wrote a new value, appends included."""
    return [i for i, v in enumerate(after)
            if i >= len(before) or before[i] != v]


def binary_indexed_interval(c: int, model: FenwickModel) -> tuple[int, int, int, int]:
    """Power-of-two descent over the hierarchical array.

    Returns ``(symbol, lower_bound, frequency, iterations)``.  The values
    the descent subtracts add up to ``model.cum(symbol)``.  Each in-range
    probe it does not take gives an upper bound ``low + v[test]``, and the
    last of them is ``model.cum(symbol + 1)`` (or the total, if none), so
    the symbol's count comes out of the same walk.  Always
    log2(topLevIdx)+1 iterations.
    """
    v = model.v
    k = model.k
    step = model.top_lev_idx
    bottom = 0
    low = 0
    high = model.total_count
    while step:
        test = bottom + step
        # bounds test first: the probe may overrun when K is not a power of two
        if test <= k:
            x = v[test]
            if c >= x:
                bottom = test
                c -= x
                low += x
            else:
                high = low + x
        step >>= 1
    return bottom, low, high - low, model.top_lev_idx.bit_length()


def binary_indexed(c: int, model: FenwickModel) -> tuple[int, int, int]:
    """``(symbol, lower_bound, iterations)`` of ``binary_indexed_interval``."""
    sym, low, _, iters = binary_indexed_interval(c, model)
    return sym, low, iters


def _stateless(find):
    return lambda model, adaptive: (find, None)


def _log_kernel(model, adaptive):
    # bisect_right runs logarithmic's bisection in C; the iteration count
    # comes from a per-stream table, so the counters stay exact
    depth = bisection_depths(model.k)

    def find(c, hk):
        p = bisect_right(hk, c)
        return p - 1, depth[p]

    return find, None


def _tree_kernel(model, adaptive):
    tree = build_search_tree(model.hk)

    def find(c, hk):
        return tree_search(c, hk, tree)

    return find, None


def _log2_kernel(model, adaptive):
    k = model.k
    i_mid = k >> 1 if adaptive else determine_initial_split(model.hk)

    def find(c, hk):
        return log2_search(c, hk, i_mid)

    def on_update(sym, rescaled):
        nonlocal i_mid
        i_mid = adapt_initial_split(k, i_mid, sym)

    return find, on_update if adaptive else None


def _table_kernel(model, adaptive):
    table = LookupTable.create(model.h)

    def find(c, hk):
        return table.t[c], 1

    def on_update(sym, rescaled):
        nonlocal table
        if rescaled:
            table = LookupTable.create(model.h)
        else:
            table.update(model.hk, sym)

    return find, on_update if adaptive else None


#: Strategy name -> (model family, static_only, factory).  The factory is
#: called once per stream as ``factory(model, adaptive)`` and returns
#: ``(find, on_update)``.  ``find(c, hk)`` returns ``(symbol, iterations)``;
#: for the fenwick family it is ``find(c, model)`` returning
#: ``(symbol, lower_bound, frequency, iterations)``.
#: ``on_update(sym, rescaled)``, when not None, runs after each adaptive
#: model update.
KERNELS = {
    "lin-fwd": ("linear", False, _stateless(linear_forward)),
    "lin-bwd": ("linear", False, _stateless(linear_backward)),
    "log": ("linear", False, _log_kernel),
    "log2": ("linear", False, _log2_kernel),
    "exp": ("linear", False, _stateless(exponential)),
    "tree": ("linear", True, _tree_kernel),
    "table": ("linear", False, _table_kernel),
    "bi": ("fenwick", False, _stateless(binary_indexed_interval)),
}

#: Stable strategy identifiers for the CLI and CSV output.
STRATEGIES = tuple(KERNELS)


def strategy_compatible(strategy: str, model: str, mode: str) -> str | None:
    """None if the cell is runnable, else a human-readable skip reason."""
    if strategy not in KERNELS:
        return f"unknown strategy {strategy!r}"
    family, static_only, _ = KERNELS[strategy]
    if model != family:
        return f"{strategy} search needs the {family} model"
    if static_only and mode != "static":
        return f"{strategy} search is static-only"
    return None
