import bisect
import contextlib
import hashlib
import json
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rangekit import linear_model, search
from rangekit.datagen import GenSpec, gen_sequence
from rangekit.fenwick_model import FenwickModel
from rangekit.linear_model import LinearModel
from rangekit.rangecoder import (
    CoderConfig, DecodeStats, Decoder, decode_stream, encode_stream,
    unpack_header,
)
from rangekit.search import (
    KERNELS, NO_CHILD, STRATEGIES, LookupTable, adapt_initial_split,
    best_split, binary_indexed, binary_indexed_interval, build_search_tree,
    changed_slots, count_iterations, determine_initial_split,
    exponential, linear_backward, linear_forward, log2_search, logarithmic,
    strategy_compatible, tree_search,
)

from conftest import (
    REF19_COUNTS, TOY_HK, TOY_TABLE, TOY_TABLE_AFTER, ReferenceSearch,
    count_cap, python_loops,
)


def oracle_symbol(c, hk):
    """Independent reference: rightmost boundary <= c."""
    return bisect.bisect_right(hk, c) - 1


# every code value of the toy model and its symbol
TOY_CASES = [(c, oracle_symbol(c, TOY_HK)) for c in range(10)]


@pytest.mark.parametrize("c,sym", TOY_CASES)
def test_linear_scans_toy(c, sym):
    assert linear_backward(c, TOY_HK)[0] == sym
    assert linear_forward(c, TOY_HK)[0] == sym


def test_linear_probe_counts():
    k = len(TOY_HK) - 1
    for c, sym in TOY_CASES:
        assert linear_forward(c, TOY_HK)[1] == sym + 1
        assert linear_backward(c, TOY_HK)[1] == k - sym


@pytest.mark.parametrize("c,sym", TOY_CASES)
def test_logarithmic_toy(c, sym):
    assert logarithmic(c, TOY_HK)[0] == sym


def test_logarithmic_iteration_bound():
    m = LinearModel(REF19_COUNTS)
    for c in range(m.total_count):
        sym, iters = logarithmic(c, m.hk)
        assert sym == oracle_symbol(c, m.hk)
        assert iters <= 6  # ceil(log2 19) + 1


def test_bisection_depths_match_logarithmic():
    # one count per symbol: code value c = sym decodes to sym
    for k in range(1, 301):
        model = LinearModel([1] * k, adaptive=False)
        hk = model.hk
        for sym in range(k):
            assert (count_iterations("log", hk, False, [sym])
                    == Counter({logarithmic(sym, hk)[1]: 1}))


def test_best_split_balances_mass():
    # boundaries 0,3,5,6,10: j=2 splits 5 vs 5 exactly
    assert best_split(TOY_HK, 0, 4) == 2
    # ties break low
    assert best_split([0, 1, 2, 3, 4], 0, 4) == 2
    with pytest.raises(ValueError):
        best_split(TOY_HK, 1, 2)


def brute_force_split(hk, bottom, top):
    """Reference split: scan every interior boundary, first minimum wins."""
    ref = hk[top] + hk[bottom]
    return min(range(bottom + 1, top), key=lambda j: abs(2 * hk[j] - ref))


# counts with many zeros give boundary arrays with long plateaus
plateau_counts = st.lists(
    st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 1000)),
    min_size=2, max_size=40)


BISECT_REFERENCES = {
    "lin-fwd": linear_forward,
    "lin-bwd": linear_backward,
    "log": logarithmic,
}


def assert_kernel_matches(strategy, model, reference):
    """For every code value c, decode's rule ``bisect_right(hk, c) - 1``
    finds the symbol that ``reference(c)`` finds, and counting that symbol
    after decoding gives the iterations ``reference`` took at c."""
    hk = model.hk
    counted = {}
    for c in range(model.total_count):
        sym, iters = reference(c)
        assert bisect.bisect_right(hk, c) - 1 == sym
        if sym not in counted:
            counted[sym] = count_iterations(strategy, hk, False, [sym])
        assert counted[sym] == Counter({iters: 1})


@pytest.mark.parametrize("strategy", BISECT_REFERENCES)
@settings(deadline=None, max_examples=150)
@given(st.lists(st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 50)),
                min_size=1, max_size=300))
def test_bisect_kernel_matches_reference(strategy, counts):
    """bisect_right plus counting after decoding gives the reference
    search's symbol and iteration count for every code value, zero-count
    plateaus included."""
    if not any(counts):
        counts[-1] = 1
    model = LinearModel(counts, adaptive=False)
    reference = BISECT_REFERENCES[strategy]
    assert_kernel_matches(strategy, model, lambda c: reference(c, model.hk))


@given(plateau_counts, st.data())
def test_best_split_matches_brute_force(counts, data):
    hk = LinearModel(counts, adaptive=False).hk
    k = len(counts)
    bottom = data.draw(st.integers(0, k - 2))
    top = data.draw(st.integers(bottom + 2, k))
    assert best_split(hk, bottom, top) == brute_force_split(hk, bottom, top)


# sha256 of json [left, right, root] for K=256, 256-symbol geometric
# static streams (about 190 zero counts each), recorded with the
# full-scan split
TREE_DIGESTS = {
    1: "e9bdef61f6c32e4a4dd94c1fa2552d2eaadfebbad5630e9330fe2bc1b5c69116",
    2: "443ec083563c8c6b5e36cf1c063ac4fbaf3467a6503120794445f703dc2636df",
    3: "76d3c65f568e566958038de89c18b54c1c7c80eb308f1333061afdbe1bce5409",
}


@pytest.mark.parametrize("seed", sorted(TREE_DIGESTS))
def test_build_tree_golden_k256(seed):
    seq = gen_sequence(GenSpec("geometric", 256, 256, seed)).tolist()
    header, _ = unpack_header(
        encode_stream(seq, 256, CoderConfig("static", "linear")))
    tree = build_search_tree(LinearModel(header.counts, adaptive=False).hk)
    blob = json.dumps([tree.left, tree.right, tree.root]).encode()
    assert hashlib.sha256(blob).hexdigest() == TREE_DIGESTS[seed]


def test_build_tree_flat_k4():
    tree = build_search_tree([0, 1, 2, 3, 4])
    assert tree.root == 2
    assert tree.left[2] == 1
    assert tree.right[2] == 3
    assert tree.left[1] == 0
    assert tree.left[0] == NO_CHILD == tree.right[0]


def test_build_tree_toy_root():
    tree = build_search_tree(TOY_HK)
    assert tree.root == 2  # splits 6 against 4, the closest to half of 10


def test_tree_search_toy():
    tree = build_search_tree(TOY_HK)
    for c, sym in TOY_CASES:
        assert tree_search(c, TOY_HK, tree)[0] == sym


def test_build_tree_skewed_does_not_recurse():
    # strictly increasing boundaries force a maximally deep tree
    hk = list(range(0, 4002, 2))
    hk[-1] += 10 ** 6  # all the mass on the last symbol
    tree = build_search_tree(hk)
    for c in (0, 1, 5, 3999, 4000, hk[-1] - 1):
        assert tree_search(c, hk, tree)[0] == oracle_symbol(c, hk)


@settings(deadline=None, max_examples=150)
@given(st.lists(st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 50)),
                min_size=1, max_size=300))
def test_tree_kernel_matches_tree_search(counts):
    """bisect_right plus counting after decoding gives tree_search's
    symbol and iteration count for every code value, zero-count plateaus
    included."""
    if not any(counts):
        counts[-1] = 1
    model = LinearModel(counts, adaptive=False)
    tree = build_search_tree(model.hk)
    assert_kernel_matches("tree", model,
                          lambda c: tree_search(c, model.hk, tree))


def test_tree_depths_skip_zero_mass_ranges():
    """Counting searches the decoded symbols only, never the zero-count
    tail, and a symbol next to a zero-mass range gets its depth in the
    full tree."""
    k = 256
    model = LinearModel([5, 3, 0, 1, 7] + [0] * (k - 5), adaptive=False)
    hk = model.hk
    tree = build_search_tree(hk)
    decoded = [0, 1, 3, 4, 4, 0, 4]
    with mock.patch.object(search, "tree_search",
                           wraps=search.tree_search) as walk:
        hist = count_iterations("tree", hk, False, decoded)
    assert sorted(call.args[0] for call in walk.call_args_list) == [
        hk[sym] for sym in (0, 1, 3, 4)]
    assert hist == Counter(tree_search(hk[sym], hk, tree)[1]
                           for sym in decoded)


# every runnable (strategy, mode) cell; tree is static-only
DECODE_CELLS = [(s, mode) for s in STRATEGIES for mode in ("static", "adaptive")
                if strategy_compatible(s, KERNELS[s][0], mode) is None]


def reference_decode(payload, strategy):
    """Decoder plus the strategy's reference search on every code value,
    counting as the paper does: one histogram entry per search."""
    header, offset = unpack_header(payload)
    adaptive = header.mode == "adaptive"
    counts = list(header.counts or [1] * header.k)
    if header.model == "fenwick":
        model = FenwickModel(counts, adaptive=adaptive,
                             rescale_variant=header.rescale)
    else:
        model = LinearModel(counts, adaptive=adaptive)
    search = ReferenceSearch(strategy, model, adaptive)
    dec = Decoder(payload[offset:])
    stats = DecodeStats()
    out = []
    for pos in range(header.n):
        c = dec.decode_target(model.total_count)
        sym, iters = search.find(c)
        dec.consume(model.cum(sym), model.count(sym))
        out.append(sym)
        stats.symbols += 1
        stats.search_iterations += iters
        stats.iteration_histogram[iters] += 1
        if adaptive:
            stats.rescale_events += model.update(sym)
            interval = header.rescale_interval
            if interval and (pos + 1) % interval == 0:
                model.rescale()
                stats.rescale_events += 1
            search.after(sym)
    stats.update_accesses = model.update_accesses
    stats.rescale_accesses = model.rescale_accesses
    return out, stats


@pytest.mark.parametrize("strategy,mode", DECODE_CELLS)
@settings(deadline=None, max_examples=40)
@given(st.one_of(st.integers(1, 40), st.just(64)), st.integers(0, 12),
       st.one_of(st.none(), st.integers(0, 60)), st.data())
def test_decode_stats_match_reference_decode(strategy, mode, k, interval,
                                             headroom, data):
    """Decoding with bisect_right and counting afterwards gives the
    reference searches' symbols and every DecodeStats field.

    Static streams leave some symbols unused, so ``hk`` has zero-count
    plateaus.  Adaptive streams rescale periodically and, with a lowered
    count cap, on reaching the cap; K = 64 stores an adaptive ``hk`` as
    an array.
    """
    family = KERNELS[strategy][0]
    if mode == "static":
        used = data.draw(st.lists(st.integers(0, k - 1), min_size=1,
                                  max_size=k, unique=True))
        cap = None
    else:
        used = range(k)
        cap = None if headroom is None else k + headroom
    symbols = data.draw(st.lists(st.sampled_from(used), min_size=1,
                                 max_size=150))
    cfg = CoderConfig(mode, family, "orig",
                      interval if mode == "adaptive" else 0)
    with count_cap(cap):
        payload = encode_stream(symbols, k, cfg)
        want_out, want = reference_decode(payload, strategy)
        stats = DecodeStats()
        _, out = decode_stream(payload, strategy, stats)
    assert want_out == out == symbols
    assert stats == want


@pytest.mark.parametrize("strategy,mode", DECODE_CELLS)
def test_decode_counts_only_when_asked(strategy, mode):
    family, static_only, count = KERNELS[strategy]
    spy = mock.Mock(wraps=count)
    payload = encode_stream([0, 1, 2, 1, 0] * 40, 3,
                            CoderConfig(mode, family, "orig", 16))
    with mock.patch.dict(KERNELS, {strategy: (family, static_only, spy)}):
        decode_stream(payload, strategy)
        spy.assert_not_called()
        decode_stream(payload, strategy, DecodeStats())
        spy.assert_called_once()


@pytest.mark.parametrize("strategy,mode", DECODE_CELLS)
def test_decode_builds_no_search_structure(strategy, mode):
    """Without stats, decode builds none of the reference structures,
    whatever the strategy and on either loop: no lookup table is created
    or repaired and no search tree is built."""
    payload = encode_stream([0, 1, 2, 1, 0, 3] * 40, 4,
                            CoderConfig(mode, KERNELS[strategy][0], "orig", 16))
    for loops in (contextlib.nullcontext, python_loops):
        with loops(), \
                mock.patch.object(LookupTable, "create") as create, \
                mock.patch.object(LookupTable, "update") as update, \
                mock.patch.object(search, "build_search_tree") as build:
            _, out = decode_stream(payload, strategy)
        assert out == [0, 1, 2, 1, 0, 3] * 40
        create.assert_not_called()
        update.assert_not_called()
        build.assert_not_called()


def test_determine_initial_split():
    assert determine_initial_split(TOY_HK) == 2
    assert determine_initial_split([0, 7]) == 1
    # half the mass sits below boundary 1, neighbour check pulls back
    assert determine_initial_split([0, 6, 8, 10]) == 1


def test_adapt_initial_split_literal_branches():
    assert adapt_initial_split(19, 5, 9) == 4
    assert adapt_initial_split(19, 0, 3) == 0   # clamped low
    assert adapt_initial_split(19, 5, 2) == 6
    assert adapt_initial_split(19, 19, 2) == 19  # clamped high


def replay_adaptive_log2(k, syms):
    """The adaptive ``log2`` histogram of ``syms``, one ``log2_search``
    per symbol, and the first probes it started from."""
    hk = list(range(k + 1))
    i_mid, hist, starts = k >> 1, Counter(), set()
    for sym in syms:
        starts.add(i_mid)
        hist[log2_search(hk[sym], hk, i_mid)[1]] += 1
        i_mid = adapt_initial_split(k, i_mid, sym)
    return hist, starts


def symbol_runs():
    """(K, symbols) pairs made of runs of one symbol: a run of K - 1 walks
    the first probe down to 0 and a run of 0 up to K, where it clamps."""
    return st.integers(1, 300).flatmap(lambda k: st.tuples(st.just(k), st.lists(
        st.tuples(st.one_of(st.just(0), st.just(k - 1), st.integers(0, k - 1)),
                  st.integers(1, 2 * k + 2)), max_size=8).map(
            lambda runs: [sym for sym, n in runs for _ in range(n)])))


@settings(deadline=None, max_examples=100)
@given(symbol_runs())
def test_adaptive_log2_count_matches_the_per_symbol_replay(stream):
    """``count_iterations`` looks an adaptive ``log2`` count up by its
    (first probe, symbol) pair once the pair has been counted, and gives
    the histogram of one ``log2_search`` per symbol."""
    k, syms = stream
    hk = list(range(k + 1))
    assert count_iterations("log2", hk, True, syms) == replay_adaptive_log2(k, syms)[0]


@pytest.mark.parametrize("k", (1, 3, 256))
def test_adaptive_log2_count_at_clamped_first_probes(k):
    """Runs that clamp the first probe at 0 and at K, and repeat symbols
    at both clamps, count as the per-symbol replay does.  (At K = 2 the
    probe never falls below 1: only a symbol above it lowers it.)"""
    syms = [k - 1] * (k + 2) + [0] * (2 * k + 3) + [k - 1, 0, k - 1] * 3
    want, starts = replay_adaptive_log2(k, syms)
    assert {0, k} <= starts
    assert count_iterations("log2", list(range(k + 1)), True, syms) == want


@pytest.mark.parametrize("i_mid", range(1, 4))
def test_log2_search_any_split_is_correct(i_mid):
    for c, sym in TOY_CASES:
        assert log2_search(c, TOY_HK, i_mid)[0] == sym


def test_log2_first_probe_counts():
    # c = 0 with a centred split resolves faster than with a far one
    _, fast = log2_search(0, TOY_HK, 1)
    _, slow = log2_search(0, TOY_HK, 3)
    assert fast < slow


@pytest.mark.parametrize("c,sym", TOY_CASES)
def test_exponential_toy(c, sym):
    assert exponential(c, TOY_HK)[0] == sym


def test_exponential_gallop_overshoot_clamped():
    m = LinearModel(REF19_COUNTS)  # K = 19, gallop can reach 32
    for c in range(m.total_count):
        assert exponential(c, m.hk)[0] == oracle_symbol(c, m.hk)


def test_exponential_early_symbols_are_cheap():
    hk = LinearModel.flat(256).hk
    _, cheap = exponential(0, hk)
    _, costly = exponential(255, hk)
    assert cheap < costly


def test_lookup_table_create(toy_counts):
    assert LookupTable.create(toy_counts).t == TOY_TABLE
    assert LookupTable.create([0, 2]).t == [1, 1]
    with pytest.raises(ValueError):
        LookupTable.create([0, 0])


def test_lookup_table_lookup(toy_counts):
    table = LookupTable.create(toy_counts)
    for c, sym in TOY_CASES:
        assert table.lookup(c) == sym


def test_lookup_table_update(toy_counts):
    table = LookupTable.create(toy_counts)
    m = LinearModel(toy_counts)
    m.update(1)
    before = list(table.t)
    assert table.update(m.hk, 1) is None
    assert changed_slots(before, table.t) == [5, 6, 10]
    assert table.t == TOY_TABLE_AFTER


def test_lookup_table_update_last_symbol(toy_counts):
    table = LookupTable.create(toy_counts)
    m = LinearModel(toy_counts)
    m.update(3)
    table.update(m.hk, 3)
    assert changed_slots(TOY_TABLE, table.t) == [10]
    assert table.t == TOY_TABLE + [3]


@given(st.integers(1, 20), st.data())
def test_lookup_table_tracks_model(k, data):
    m = LinearModel.flat(k)
    table = LookupTable.create(m.h)
    for sym in data.draw(st.lists(st.integers(0, k - 1), max_size=30)):
        m.update(sym)
        table.update(m.hk, sym)
    assert table.t == LookupTable.create(m.h).t


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(1, 8), min_size=1, max_size=12),
       st.integers(0, 12), st.integers(0, 60), st.data())
def test_table_kernel_tracks_model(counts, interval, headroom, data):
    """The table follows adaptive updates with periodic and cap-triggered
    rescales: a rescale rebuilds it, an update repairs it.

    The count cap is lowered so the cap rescale fires within a few dozen
    symbols.
    """
    k = len(counts)
    model = LinearModel(counts)
    table = LookupTable.create(model.h)
    syms = data.draw(st.lists(st.integers(0, k - 1), max_size=80))
    with mock.patch.object(linear_model, "MAX_TOTALCOUNT",
                           sum(counts) + headroom):
        for pos, sym in enumerate(syms):
            before = list(table.t)
            rescaled = model.update(sym)
            if interval and (pos + 1) % interval == 0:
                model.rescale()
                rescaled = True
            if rescaled:
                table = LookupTable.create(model.h)
            else:
                table.update(model.hk, sym)
                # the paper's repair: the last slot of every run from sym up
                assert changed_slots(before, table.t) == [
                    model.hk[i + 1] - 1 for i in range(sym, k)]
            assert table.t == LookupTable.create(model.h).t


def test_binary_indexed_toy(toy_counts):
    fm = FenwickModel(toy_counts)
    for c, sym in TOY_CASES:
        got, low, iters = binary_indexed(c, fm)
        assert got == sym
        assert low == TOY_HK[sym]
        assert iters == 3  # log2(4) + 1, independent of c


def test_binary_indexed_reference(ref19_counts):
    fm = FenwickModel(ref19_counts)
    hk = LinearModel(ref19_counts).hk
    for c in range(fm.total_count):
        sym, low, iters = binary_indexed(c, fm)
        assert sym == oracle_symbol(c, hk)
        assert low == hk[sym]
        assert iters == 5  # log2(16) + 1 for K = 19


def assert_descent_interval(fm):
    """The descent's (sym, low, freq) is (sym, cum(sym), count(sym))."""
    iters = fm.top_lev_idx.bit_length()
    for c in range(fm.total_count):
        sym, low, freq = binary_indexed_interval(c, fm)
        assert (low, freq) == (fm.cum(sym), fm.count(sym))
        assert low <= c < low + freq
        assert binary_indexed(c, fm) == (sym, low, iters)


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 70), st.sampled_from(("orig", "new")), st.data())
def test_binary_indexed_interval_adaptive(k, variant, data):
    fm = FenwickModel([data.draw(st.integers(1, 9)) for _ in range(k)],
                      rescale_variant=variant)
    ops = data.draw(st.lists(
        st.one_of(st.integers(0, k - 1), st.just("rescale")), max_size=40))
    for op in ops:
        if op == "rescale":
            fm.rescale()
        else:
            fm.update(op)
    assert_descent_interval(fm)


@given(plateau_counts)
def test_binary_indexed_interval_static_zero_counts(counts):
    if not any(counts):
        counts[0] = 1
    assert_descent_interval(FenwickModel(counts, adaptive=False))


@given(st.lists(st.integers(1, 60), min_size=1, max_size=50), st.data())
def test_all_strategies_agree(counts, data):
    m = LinearModel(counts)
    fm = FenwickModel(counts)
    hk = m.hk
    tree = build_search_tree(hk)
    table = LookupTable.create(counts)
    i_mid = determine_initial_split(hk)
    c = data.draw(st.integers(0, m.total_count - 1))
    want = oracle_symbol(c, hk)
    assert linear_forward(c, hk)[0] == want
    assert linear_backward(c, hk)[0] == want
    assert logarithmic(c, hk)[0] == want
    assert log2_search(c, hk, i_mid)[0] == want
    assert exponential(c, hk)[0] == want
    assert tree_search(c, hk, tree)[0] == want
    assert table.lookup(c) == want
    assert binary_indexed(c, fm)[0] == want
