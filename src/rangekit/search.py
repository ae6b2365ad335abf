"""Decoder symbol-identification strategies.

Every strategy answers the same question: given a code value c in
[0, totalCount), find the symbol index i with hk[i] <= c < hk[i+1].
These functions are the reference searches: their iteration counts are
the work the paper compares.  ``KERNELS`` is the one place that knows
each strategy.

Decode's search follows the stream, not the strategy.  Every
comparison search probes ``c < hk[i]``, which, for a code value c in
symbol s's nonempty interval, holds exactly when i > s.  So every
comparison search (``lin-fwd``, ``lin-bwd``, ``log``, ``log2``,
``exp``, ``tree``) finds the symbol that ``bisect_right`` finds, and
the lookup table (``table``) maps c to s by construction: a stream
decodes with one search, which ``rangecoder`` picks by its mode and
model, and ``count_iterations`` counts each strategy afterwards.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .fenwick_model import FenwickModel, top_level_index

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


class LookupTable:
    """Code-value-to-symbol map: O(1) lookup, O(K - sym) update.

    Symbol i occupies h[i] consecutive slots, so the table holds
    ``total_count`` entries.  An adaptive increment adds one slot to the
    symbol's run, and the repair rewrites the last slot of every run from
    the symbol up: the K - sym writes the paper charges the table with.
    This is the reference of that upkeep, which no decode runs: the
    compiled static decode fills its table once (``table_init`` in
    ``_loops.c``), and no adaptive decode keeps one.
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
        """Repair the table after the count of ``sym`` was incremented;
        ``hk`` must already reflect it, and every count must be >= 1."""
        t = self.t
        k = len(hk) - 1
        for i in range(sym, k - 1):
            t[hk[i + 1] - 1] = i
        t.append(k - 1)


def changed_slots(before, after) -> list[int]:
    """Positions where a table repair wrote a new value, appends included."""
    return [i for i, v in enumerate(after)
            if i >= len(before) or before[i] != v]


def binary_indexed_interval(c: int, model: FenwickModel) -> tuple[int, int, int]:
    """Power-of-two descent over the hierarchical array.

    Returns ``(symbol, lower_bound, frequency)``.  The values the descent
    subtracts add up to ``model.cum(symbol)``.  Each in-range probe it
    does not take gives an upper bound ``low + v[test]``, and the last of
    them is ``model.cum(symbol + 1)`` (or the total, if none), so the
    symbol's count comes out of the same walk.
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
    return bottom, low, high - low


def binary_indexed(c: int, model: FenwickModel) -> tuple[int, int, int]:
    """``(symbol, lower_bound, iterations)`` of the power-of-two descent,
    always log2(topLevIdx)+1 iterations."""
    sym, low, _ = binary_indexed_interval(c, model)
    return sym, low, model.top_lev_idx.bit_length()


def _tree_count(hk, adaptive):
    tree = build_search_tree(hk)
    return lambda sym: tree_search(hk[sym], hk, tree)[1]


def _log2_count(hk, adaptive):
    k = len(hk) - 1
    if not adaptive:
        i_mid = determine_initial_split(hk)
        return lambda sym: log2_search(hk[sym], hk, i_mid)[1]
    # the first probe moves after each symbol; with hk fixed, a count
    # depends on (i_mid, sym) alone, and a stream repeats few such pairs
    i_mid, memo = k >> 1, {}

    def iterations(sym):
        nonlocal i_mid
        key = i_mid, sym
        iters = memo.get(key)
        if iters is None:
            iters = memo[key] = log2_search(hk[sym], hk, i_mid)[1]
        i_mid = adapt_initial_split(k, i_mid, sym)
        return iters

    return iterations


def _bi_count(hk, adaptive):
    iters = top_level_index(len(hk) - 1).bit_length()  # K alone
    return lambda sym: iters


#: Strategy name -> (model family, static_only, count), where
#: ``count(hk, adaptive)`` gives ``count_iterations`` the function from
#: a decoded symbol to its iteration count.
KERNELS = {
    "lin-fwd": ("linear", False, lambda hk, _: lambda sym: sym + 1),
    "lin-bwd": ("linear", False, lambda hk, _: lambda sym: len(hk) - 1 - sym),
    "log": ("linear", False, lambda hk, _: lambda sym: logarithmic(hk[sym], hk)[1]),
    "log2": ("linear", False, _log2_count),
    "exp": ("linear", False, lambda hk, _: lambda sym: exponential(hk[sym], hk)[1]),
    "tree": ("linear", True, _tree_count),
    "table": ("linear", False, lambda hk, _: lambda sym: 1),
    "bi": ("fenwick", False, _bi_count),
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


def count_iterations(strategy: str, hk, adaptive: bool, symbols,
                     tally: Counter | None = None) -> Counter:
    """Iteration histogram of ``strategy``'s reference search over ``symbols``.

    A decode that counts calls it afterwards, with its symbols and
    ``hk``, the boundaries of the stream's starting model (the header's
    table, or K counts of one); no model is built.  Every decoded symbol
    has a nonzero count in it, and adaptive counts stay at least one, so
    a comparison search's path depends on the symbol alone: from
    ``hk[sym]``, the bottom of its interval, the reference search takes
    the path of any code value that decodes to it, at any point of the
    stream.  So each distinct symbol is searched once, weighted by its
    tally (the linear scans, the table and ``bi`` count in closed form),
    except by adaptive ``log2``, whose first probe moves after each
    symbol: it replays every symbol, searching once per distinct (first
    probe, symbol) pair.  ``tally``, if given, is ``Counter(symbols)``,
    so several strategies counted off one decode tally it once.
    """
    if not symbols:  # nothing to count; an empty static model has no code values
        return Counter()
    iterations = KERNELS[strategy][2](hk, adaptive)
    if adaptive and strategy == "log2":
        return Counter(map(iterations, symbols))
    hist = Counter()
    for sym, n in (Counter(symbols) if tally is None else tally).items():
        hist[iterations(sym)] += n
    return hist
