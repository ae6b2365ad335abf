import bisect
import hashlib
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rangekit import linear_model, search
from rangekit.datagen import GenSpec, gen_sequence
from rangekit.fenwick_model import FenwickModel
from rangekit.linear_model import LinearModel
from rangekit.rangecoder import CoderConfig, encode_stream, unpack_header
from rangekit.search import (
    KERNELS, NO_CHILD, LookupTable, adapt_initial_split, best_split,
    binary_indexed, binary_indexed_interval, bisection_depths,
    build_search_tree, changed_slots, determine_initial_split,
    exponential, linear_backward, linear_forward, log2_search, logarithmic,
    tree_search,
)

from conftest import REF19_COUNTS, TOY_HK, TOY_TABLE, TOY_TABLE_AFTER


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
    # one count per symbol: c = p - 1 has insertion point p for every p
    for k in range(1, 301):
        hk = list(range(k + 1))
        depth = bisection_depths(k)
        assert [depth[c + 1] for c in range(k)] == [
            logarithmic(c, hk)[1] for c in range(k)]


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


@settings(deadline=None, max_examples=150)
@given(st.lists(st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 50)),
                min_size=1, max_size=300))
def test_log_kernel_matches_logarithmic(counts):
    """bisect_right plus the depth table gives logarithmic's symbol and
    iteration count for every code value, zero-count plateaus included."""
    if not any(counts):
        counts[-1] = 1
    model = LinearModel(counts, adaptive=False)
    hk = model.hk
    find, on_update = KERNELS["log"][2](model, False)
    assert on_update is None
    for c in range(model.total_count):
        assert find(c, hk) == logarithmic(c, hk)


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


@pytest.mark.parametrize("slots_per_write", [0, 10**9],
                         ids=["rewrite", "insert"])
@given(st.lists(st.integers(1, 300), min_size=1, max_size=12), st.data())
def test_lookup_table_update_both_repairs(slots_per_write, counts, data):
    """Rewriting last slots and inserting one slot give the same table."""
    k = len(counts)
    m = LinearModel(counts)
    table = LookupTable.create(m.h)
    with mock.patch.object(search, "_INSERT_SLOTS_PER_WRITE",
                           slots_per_write):
        for sym in data.draw(st.lists(st.integers(0, k - 1), max_size=20)):
            m.update(sym)
            before = list(table.t)
            table.update(m.hk, sym)
            assert table.t == LookupTable.create(m.h).t
            assert changed_slots(before, table.t) == [
                m.hk[i + 1] - 1 for i in range(sym, k)]


class InsertCountingList(list):
    inserts = 0

    def insert(self, i, v):
        self.inserts += 1
        super().insert(i, v)


@pytest.mark.parametrize("counts, sym, inserts", [
    ([1, 1, 1, 10_000], 0, 0),   # 10 002 slots to move vs 4 writes
    ([10_000, 1, 1, 1], 1, 1),   # 2 slots to move vs 3 writes
    ([1, 1, 1, 10_000], 3, 1),   # last symbol: an append either way
])
def test_lookup_table_update_picks_cheaper_repair(counts, sym, inserts):
    m = LinearModel(counts)
    table = LookupTable(InsertCountingList(LookupTable.create(m.h).t))
    m.update(sym)
    table.update(m.hk, sym)
    assert table.t.inserts == inserts
    assert table.t == LookupTable.create(m.h).t


def table_seen_by(find, model):
    """The whole table as the kernel's ``find`` reads it."""
    t = [find(c, model.hk)[0] for c in range(model.total_count)]
    with pytest.raises(IndexError):  # and not one slot more
        find(model.total_count, model.hk)
    return t


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(1, 8), min_size=1, max_size=12),
       st.integers(0, 12), st.integers(0, 60), st.data())
def test_table_kernel_tracks_model(counts, interval, headroom, data):
    """Adaptive updates with periodic and cap-triggered rescales.

    The count cap is lowered so the cap rescale fires within a few dozen
    symbols; the kernel sees it only through ``rescaled``.
    """
    k = len(counts)
    model = LinearModel(counts)
    syms = data.draw(st.lists(st.integers(0, k - 1), max_size=80))
    with mock.patch.object(linear_model, "MAX_TOTALCOUNT",
                           sum(counts) + headroom):
        find, on_update = KERNELS["table"][2](model, True)
        for pos, sym in enumerate(syms):
            before = table_seen_by(find, model)
            rescaled = model.update(sym)
            if interval and (pos + 1) % interval == 0:
                model.rescale()
                rescaled = True
            on_update(sym, rescaled)
            after = table_seen_by(find, model)
            assert after == LookupTable.create(model.h).t
            if not rescaled:
                # the paper's repair: the last slot of every run from sym up
                assert changed_slots(before, after) == [
                    model.hk[i + 1] - 1 for i in range(sym, k)]


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
    for c in range(fm.total_count):
        sym, low, freq, iters = binary_indexed_interval(c, fm)
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
