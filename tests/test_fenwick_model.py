import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from rangekit.fenwick_model import (
    FenwickModel, forward_step, parent_index, top_level_index,
)
from rangekit.linear_model import LinearModel

from conftest import REF19_COUNTS, REF19_HK, REF19_V, count_cap

# (i, lowest set bit, parent) for i = 1..11
BIT_ROWS = [
    (1, 1, 0), (2, 2, 0), (3, 1, 2), (4, 4, 0), (5, 1, 4), (6, 2, 4),
    (7, 1, 6), (8, 8, 0), (9, 1, 8), (10, 2, 8), (11, 1, 10),
]


def test_top_level_index():
    assert top_level_index(19) == 16
    assert top_level_index(64) == 64
    assert top_level_index(1) == 1


@pytest.mark.parametrize("i,step,parent", BIT_ROWS)
def test_bit_operations(i, step, parent):
    assert forward_step(i) == step
    assert parent_index(i) == parent


def test_init_flat():
    m = FenwickModel.flat(4)
    assert m.v == [0, 1, 2, 1, 4]
    assert m.total_count == 4
    m1 = FenwickModel.flat(1)
    assert m1.v == [0, 1]
    assert m1.total_count == 1
    m19 = FenwickModel.flat(19)
    assert [m19.cum(i) for i in range(20)] == list(range(20))


def test_build_reference(ref19_counts):
    m = FenwickModel(ref19_counts)
    assert m.v == REF19_V


def test_build_matches_flat():
    assert FenwickModel([1, 1, 1, 1]).v == FenwickModel.flat(4).v


def test_build_single():
    assert FenwickModel([10]).v == [0, 10]


def chain_addition_v(counts):
    """Reference build: one chain addition per count, O(K log K)."""
    k = len(counts)
    v = [0] * (k + 1)
    for sym, c in enumerate(counts):
        i = sym + 1
        while i <= k:
            v[i] += c
            i += i & -i
    return v


@settings(deadline=None, max_examples=100)
@given(st.booleans(), st.integers(1, 300), st.data())
def test_build_matches_chain_additions(adaptive, k, data):
    # static counts may be zero; draw zeros often enough to cover runs
    count = (st.integers(1, 1000) if adaptive
             else st.one_of(st.just(0), st.integers(1, 1000)))
    counts = data.draw(st.lists(count, min_size=k, max_size=k))
    m = FenwickModel(counts, adaptive=adaptive)
    assert m.v == chain_addition_v(counts)
    assert m.total_count == sum(counts)
    # construction ticks no counter
    assert (m.query_accesses, m.update_accesses, m.rescale_accesses) == (0, 0, 0)


def test_cum(ref19_counts):
    m = FenwickModel(ref19_counts)
    assert m.cum(7) == 18
    assert m.cum(16) == 37
    assert m.cum(0) == 0
    assert [m.cum(i) for i in range(20)] == REF19_HK


def test_count(ref19_counts):
    m = FenwickModel(ref19_counts)
    assert m.count(5) == 1
    assert m.count(0) == 3
    assert m.count(8) == 3
    assert [m.count(s) for s in range(19)] == ref19_counts


def test_update_touches_expected_entries(ref19_counts):
    m = FenwickModel(ref19_counts)
    before = list(m.v)
    m.update(6)
    changed = [i for i in range(20) if m.v[i] != before[i]]
    assert changed == [7, 8, 16]

    m = FenwickModel(ref19_counts)
    m.update(15)
    assert m.v[16] == 38
    assert sum(1 for i in range(20) if m.v[i] != before[i]) == 1

    m = FenwickModel(ref19_counts)
    m.update(0)
    changed = [i for i in range(20) if m.v[i] != before[i]]
    assert changed == [1, 2, 4, 8, 16]


def test_update_chain_length_bound():
    for k in (1, 2, 7, 19, 32, 100):
        m = FenwickModel.flat(k)
        bound = int(math.log2(k)) + 1 if k > 1 else 1
        for sym in range(k):
            before = m.update_accesses
            m.update(sym)
            assert m.update_accesses - before <= bound


def test_rescale_orig_halves_counts(ref19_counts):
    m = FenwickModel([5])
    m.rescale_orig()
    assert m.count(0) == 3

    m = FenwickModel([1])
    m.rescale_orig()
    assert m.count(0) == 1

    m = FenwickModel(ref19_counts)
    m.rescale_orig()
    expected = [c - (c >> 1) for c in ref19_counts]
    assert [m.count(s) for s in range(19)] == expected
    assert m.total_count == sum(expected)


def test_rescale_new_reference(ref19_counts):
    m = FenwickModel([3, 1], rescale_variant="new")
    m.rescale_new()
    assert m.v[1] == 2  # odd index halves independently

    m = FenwickModel(ref19_counts, rescale_variant="new")
    m.rescale_new()
    # frozen from an independent step-through of the single-pass procedure
    assert m.v == [0, 2, 3, 1, 5, 2, 3, 3, 12, 2, 3, 1, 5, 1, 3, 1, 22, 1, 2, 1]
    assert m.total_count == 25


def _rescale_new_oracle(v, k):
    """Independent plain-list interpreter of the single-pass rescale, with
    its access tally: one tick per statement that reads or writes v."""
    v = list(v)
    acc = 0
    for i in range(1, k + 1):
        if i % 2 == 1:
            v[i] = v[i] - v[i] // 2
            acc += 1
        else:
            test_val = v[i] - v[i] // 2
            acc += 1
            j = i - 1
            compare_val = 0
            m = i
            while True:
                compare_val += v[j]
                acc += 1
                j &= j - 1
                m >>= 1
                if m % 2 == 1:
                    break
            v[i] = max(compare_val + 1, test_val)
            acc += 1
    return v, acc + _total_reads(k)


def _rescale_orig_oracle(v, k):
    """Plain-list interpreter of the per-symbol rescale, tallied like
    ``_rescale_new_oracle``."""
    v = list(v)
    acc = 0
    for sym in range(k):
        i = sym + 1
        h = v[i]
        acc += 1
        parent = i & (i - 1)
        i -= 1
        while i != parent:
            h -= v[i]
            acc += 1
            i &= i - 1
        h //= 2
        i = sym + 1
        while i <= k:
            v[i] -= h
            acc += 1
            i += i & -i
    return v, acc + _total_reads(k)


def _total_reads(k):
    """The reads of the total's walk down from K."""
    return bin(k).count("1")


@given(st.lists(st.integers(1, 1000), min_size=1, max_size=40))
def test_rescale_new_matches_oracle(counts):
    m = FenwickModel(counts, rescale_variant="new")
    expected, accesses = _rescale_new_oracle(FenwickModel(counts).v, len(counts))
    m.rescale_new()
    assert m.v == expected
    assert m.rescale_accesses == accesses
    assert all(m.count(s) >= 1 for s in range(m.k))


def test_rescale_tallies_match_per_statement_oracles():
    """A rescale adds its per-K total once; it equals the per-statement
    tally of the loops, which does not depend on the counts."""
    rng = random.Random(11)
    for k in range(1, 301):
        counts = [rng.randint(1, 1000) for _ in range(k)]
        for variant, oracle in (("orig", _rescale_orig_oracle),
                                ("new", _rescale_new_oracle)):
            m = FenwickModel(counts, rescale_variant=variant)
            expected, accesses = oracle(m.v, k)
            m.rescale()
            assert m.v == expected, (k, variant)
            assert m.rescale_accesses == accesses, (k, variant)
            m.rescale()
            assert m.rescale_accesses == 2 * accesses, (k, variant)


def test_rescale_new_flat_is_identity():
    for k in (1, 2, 3, 19, 64):
        m = FenwickModel.flat(k)
        flat_v = list(m.v)
        m.rescale_new()
        assert m.v == flat_v


@given(st.lists(st.integers(1, 5000), min_size=1, max_size=50))
def test_rescale_new_never_increases_entries(counts):
    m = FenwickModel(counts, rescale_variant="new")
    before = list(m.v)
    m.rescale_new()
    assert all(a <= b for a, b in zip(m.v, before))
    cums = [m.cum(i) for i in range(m.k + 1)]
    assert all(b > a for a, b in zip(cums, cums[1:]))


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 32), st.data())
def test_mirrors_linear_model(k, data):
    fm = FenwickModel.flat(k)
    counts = [1] * k
    ops = data.draw(st.lists(
        st.one_of(st.integers(0, k - 1), st.just("rescale")), max_size=60))
    for op in ops:
        if op == "rescale":
            fm.rescale_orig()
            counts = [c - (c >> 1) for c in counts]
        else:
            fm.update(op)
            counts[op] += 1
    lin = LinearModel(counts)
    assert [fm.cum(i) for i in range(k + 1)] == list(lin.hk)
    assert [fm.count(s) for s in range(k)] == counts


def test_rescale_variants_not_interchangeable(ref19_counts):
    a = FenwickModel(ref19_counts)
    b = FenwickModel(ref19_counts, rescale_variant="new")
    a.rescale()
    b.rescale()
    assert a.v != b.v  # streams must pin one variant


def test_static_zero_counts_allowed():
    m = FenwickModel([0, 3, 0, 2], adaptive=False)
    assert [m.cum(i) for i in range(5)] == [0, 0, 3, 3, 5]
    with pytest.raises(ValueError):
        FenwickModel([0, 3, 0, 2])


def test_rescale_access_counters():
    rng = random.Random(3)
    for k in (16, 64):
        counts = [rng.randint(1, 50) for _ in range(k)]
        m = FenwickModel(counts)
        m.rescale_orig()
        formula = 4 * k + (math.log2(k) - 2) * k / 2
        assert abs(m.rescale_accesses - formula) <= 0.15 * formula
        m2 = FenwickModel(counts, rescale_variant="new")
        m2.rescale_new()
        assert m2.rescale_accesses <= 3 * k + 8
        assert m2.rescale_accesses < m.rescale_accesses


@pytest.mark.parametrize("variant", ("orig", "new"))
def test_update_rejects_symbol_out_of_range(variant):
    """A symbol outside [0, K) raises IndexError and changes nothing, also
    at the count cap, where an update rescales first.  From a negative
    symbol the update chain would reach index 0 and never end."""
    with count_cap(5):
        m = FenwickModel.flat(4, rescale_variant=variant)
        m.update(3)  # the total reaches the cap
        before = model_state(m)
        for sym in (-1, -4, 4, 9):
            with pytest.raises(IndexError):
                m.update(sym)
            assert model_state(m) == before
        assert [m.count(s) for s in range(4)] == [1, 1, 1, 2]


def model_state(m):
    return list(m.v), m.total_count, m.update_accesses, m.rescale_accesses
