import contextlib
import signal
import struct
from unittest import mock

import pytest
from hypothesis import strategies as st

from rangekit import _loops, cli, linear_model
from rangekit.datagen import MAX_ALPHABET
from rangekit.rangecoder import _HEADER_SIZE
from rangekit.search import (
    LookupTable, adapt_initial_split, binary_indexed, build_search_tree,
    determine_initial_split, exponential, linear_backward, linear_forward,
    log2_search, logarithmic, tree_search,
)

# the paper's fixtures, as lists, from the tuples `rangekit selftest` checks:
# the 19-symbol example's counts, hierarchical array and boundary array
REF19_COUNTS = list(cli.REF_COUNTS_19)
REF19_V = list(cli.REF_V_19)
REF19_HK = list(cli.REF_HK_19)

# 4-symbol walkthrough: counts, boundaries, lookup table before/after
TOY_COUNTS = list(cli.REF_TOY_COUNTS)
TOY_HK = [0, 3, 5, 6, 10]
TOY_TABLE = list(cli.REF_TOY_TABLE)
TOY_TABLE_AFTER = list(cli.REF_TOY_TABLE_AFTER)


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
    return mock.patch.object(linear_model, "MAX_TOTALCOUNT", cap)


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
