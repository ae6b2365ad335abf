import contextlib
import signal
import struct
from unittest import mock

import pytest
from hypothesis import strategies as st

from rangekit import _loops, fenwick_model, linear_model
from rangekit.datagen import MAX_ALPHABET
from rangekit.rangecoder import _HEADER_SIZE
from rangekit.search import (
    LookupTable, adapt_initial_split, binary_indexed, build_search_tree,
    determine_initial_split, exponential, linear_backward, linear_forward,
    log2_search, logarithmic, tree_search,
)

# 19-symbol reference example: counts, boundary array, hierarchical array
REF19_COUNTS = [3, 2, 2, 1, 4, 1, 5, 2, 3, 1, 2, 3, 1, 4, 2, 1, 1, 3, 2]
REF19_V = [0, 3, 5, 2, 8, 4, 5, 5, 20, 3, 4, 2, 9, 1, 5, 2, 37, 1, 4, 2]
REF19_HK = [0, 3, 5, 7, 8, 12, 13, 18, 20, 23, 24, 26, 29, 30, 34, 36, 37,
             38, 41, 43]

# 4-symbol walkthrough: counts, boundaries, lookup table before/after
TOY_COUNTS = [3, 2, 1, 4]
TOY_HK = [0, 3, 5, 6, 10]
TOY_TABLE = [0, 0, 0, 1, 1, 2, 3, 3, 3, 3]
TOY_TABLE_AFTER = [0, 0, 0, 1, 1, 1, 2, 3, 3, 3, 3]


@pytest.fixture
def ref19_counts():
    return list(REF19_COUNTS)


@pytest.fixture
def toy_counts():
    return list(TOY_COUNTS)


def count_cap(cap):
    """Context in which both models rescale once their total reaches
    ``cap``; None leaves the cap alone."""
    if cap is None:
        return contextlib.nullcontext()
    stack = contextlib.ExitStack()
    for module in (linear_model, fenwick_model):
        stack.enter_context(mock.patch.object(module, "MAX_TOTALCOUNT", cap))
    return stack


def python_loops():
    """Context in which the stream functions run their Python loops, as
    when the compiled loops could not be built."""
    return mock.patch.object(_loops, "_lib", None)


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed, so a
    loop that never ends fails the test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# header field offsets of the "<4sBBBBIIQ" layout
K_AT, N_AT = 12, 16


def mutate(payload, kind, data):
    """``payload`` with one mutation of ``kind`` applied."""
    out = bytearray(payload)
    if kind == "truncate":
        return bytes(out[:data.draw(st.integers(0, len(out) - 1))])
    if kind == "flip":
        at = data.draw(st.integers(0, len(out) - 1))
        out[at] ^= data.draw(st.integers(1, 255))
    elif kind == "k":
        struct.pack_into("<I", out, K_AT,
                         data.draw(st.integers(0, MAX_ALPHABET + 1)))
    elif kind == "count":
        k = struct.unpack_from("<I", out, K_AT)[0]
        at = _HEADER_SIZE + 4 * data.draw(st.integers(0, k - 1))
        struct.pack_into("<I", out, at, data.draw(st.one_of(
            st.integers(0, 3), st.integers(0, linear_model.MAX_TOTALCOUNT + 1))))
    else:  # "n", often past the symbol limit the mutation tests set
        struct.pack_into("<Q", out, N_AT, data.draw(st.one_of(
            st.integers(0, 1 << 16), st.integers(0, (1 << 64) - 1))))
    return bytes(out)


class ReferenceSearch:
    """A strategy's reference search, run on every code value.

    ``find(c)`` returns ``(symbol, iterations)`` on the model as it stands.
    ``after(sym)`` runs after each adaptive update; it moves ``log2``'s
    first probe.  ``table`` rebuilds its table for every lookup.
    """

    def __init__(self, strategy, model, adaptive):
        self.strategy = strategy
        self.model = model
        if strategy == "tree":
            self.tree = build_search_tree(model.hk)
        elif strategy == "log2":
            self.i_mid = (model.k >> 1 if adaptive
                          else determine_initial_split(model.hk))

    def find(self, c):
        model = self.model
        strategy = self.strategy
        if strategy == "bi":
            sym, _, iters = binary_indexed(c, model)
            return sym, iters
        if strategy == "table":
            return LookupTable.create(model.h).lookup(c), 1
        hk = model.hk
        if strategy == "tree":
            return tree_search(c, hk, self.tree)
        if strategy == "log2":
            return log2_search(c, hk, self.i_mid)
        return {"lin-fwd": linear_forward, "lin-bwd": linear_backward,
                "log": logarithmic, "exp": exponential}[strategy](c, hk)

    def after(self, sym):
        if self.strategy == "log2":
            self.i_mid = adapt_initial_split(self.model.k, self.i_mid, sym)
