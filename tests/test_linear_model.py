import random
from array import array
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from rangekit import linear_model
from rangekit.fenwick_model import FenwickModel
from rangekit.linear_model import MAX_TOTALCOUNT, LinearModel

from conftest import REF19_COUNTS, REF19_HK, TOY_HK, count_cap

# the containers a count vector comes in: the model copies either into its
# own lists, so callers' counts never change under updates and rescales
COUNT_STORAGES = {"list": list, "array": lambda counts: array("I", counts)}


def test_flat_init():
    m = LinearModel.flat(4)
    assert m.h == [1, 1, 1, 1]
    assert m.hk == [0, 1, 2, 3, 4]
    assert m.total_count == 4


def test_flat_init_degenerate():
    m = LinearModel.flat(1)
    assert m.h == [1]
    assert m.hk == [0, 1]


def test_flat_init_total():
    assert LinearModel.flat(19).total_count == 19


def test_flat_init_rejects_empty_alphabet():
    with pytest.raises(ValueError):
        LinearModel.flat(0)


def test_build_toy():
    m = LinearModel([3, 2, 1, 4])
    assert m.hk == TOY_HK
    assert m.total_count == 10


def test_build_reference_row():
    m = LinearModel(REF19_COUNTS)
    assert m.hk == REF19_HK
    assert m.hk[19] == 43


def test_build_single():
    assert LinearModel([1]).hk == [0, 1]


def test_build_rejects_overflow():
    with pytest.raises(OverflowError):
        LinearModel([MAX_TOTALCOUNT + 1])


def test_build_static_allows_zero_counts():
    m = LinearModel([0, 2], adaptive=False)
    assert m.hk == [0, 0, 2]
    with pytest.raises(ValueError):
        LinearModel([0, 2])  # adaptive needs counts >= 1


def test_cum_accessor(ref19_counts):
    m = LinearModel(ref19_counts)
    assert m.cum(7) == 18
    assert m.cum(0) == 0
    assert LinearModel([3, 2, 1, 4]).cum(4) == 10


def test_cum_is_pure(toy_counts):
    m = LinearModel(toy_counts)
    assert m.cum(2) == m.cum(2)


def test_update_toy():
    m = LinearModel([3, 2, 1, 4])
    m.update(1)
    assert m.hk == [0, 3, 6, 7, 11]
    assert m.h == [3, 3, 1, 4]
    assert m.total_count == 11


def test_update_last_symbol_touches_one_entry():
    m = LinearModel.flat(8)
    before = list(m.hk)
    m.update(7)
    changed = [i for i in range(9) if m.hk[i] != before[i]]
    assert changed == [8]


def test_update_first_symbol_touches_all_entries():
    m = LinearModel.flat(8)
    before = list(m.hk)
    m.update(0)
    changed = [i for i in range(9) if m.hk[i] != before[i]]
    assert changed == list(range(1, 9))


def test_update_rejects_static_model():
    m = LinearModel([1, 2], adaptive=False)
    with pytest.raises(ValueError):
        m.update(0)


def test_rescale_rounding():
    m = LinearModel([5])
    m.rescale()
    assert m.h == [3]


def test_rescale_keeps_minimum_counts():
    m = LinearModel([1, 1])
    m.rescale()
    assert m.h == [1, 1]


def test_rescale_reference_total(ref19_counts):
    # oracle: sum of ceil(h/2) over the reference counts
    expected = sum(c - (c >> 1) for c in ref19_counts)
    m = LinearModel(ref19_counts)
    m.rescale()
    assert m.total_count == expected
    assert m.h == [c - (c >> 1) for c in ref19_counts]


def test_rescale_triggered_at_cap():
    m = LinearModel([MAX_TOTALCOUNT - 2, 1])
    m.update(0)  # total hits the cap
    assert m.total_count == MAX_TOTALCOUNT
    m.update(0)  # must rescale before incrementing
    assert m.total_count <= MAX_TOTALCOUNT // 2 + 2


@given(st.integers(1, 24), st.data())
def test_prefix_sum_identity_after_random_updates(k, data):
    # None draws a rescale; K = 1 and sym = K - 1 update one-entry tails
    ops = data.draw(st.lists(st.none() | st.integers(0, k - 1), max_size=40))
    m = LinearModel.flat(k)
    counts = [1] * k
    for sym in ops:
        if sym is None:
            m.rescale()
            counts = reference_rescale(counts)[0]
        else:
            m.update(sym)
            counts[sym] += 1
    assert m.hk[0] == 0
    for i in range(k):
        assert m.hk[i + 1] == m.hk[i] + m.h[i]
    assert m.hk[k] == m.total_count
    assert (m.h, m.hk, m.total_count) == reference_model(counts)


def test_update_changes_exactly_tail_entries():
    rng = random.Random(1)
    m = LinearModel.flat(13)
    for _ in range(50):
        sym = rng.randrange(13)
        before = list(m.hk)
        m.update(sym)
        changed = sum(1 for i in range(14) if m.hk[i] != before[i])
        assert changed == 13 - sym


def reference_model(counts):
    """Loop reference of construction: (h, hk, total)."""
    h = list(counts)
    hk = [0] * (len(h) + 1)
    s = 0
    for i, c in enumerate(h):
        s += c
        hk[i + 1] = s
    return h, hk, s


def reference_rescale(h):
    """Loop reference of rescale: halve rounding up, then prefix sums."""
    h = list(h)
    for i in range(len(h)):
        h[i] -= h[i] >> 1
    return reference_model(h)


@given(st.booleans(), st.data())
def test_construction_and_rescale_match_loop_reference(adaptive, data):
    low = 1 if adaptive else 0
    counts = data.draw(st.lists(st.integers(low, 5000), min_size=1, max_size=200))
    m = LinearModel(counts, adaptive=adaptive)
    assert (m.h, m.hk, m.total_count) == reference_model(counts)
    assert m.rescale_accesses == 0
    h, hk = m.h, m.hk
    for rounds in range(1, 3):
        want = reference_rescale(m.h)
        m.rescale()
        assert (m.h, m.hk, m.total_count) == want
        assert m.rescale_accesses == 3 * len(counts) * rounds
        # decode and the table kernel keep these lists across a rescale
        assert m.h is h and m.hk is hk


@pytest.mark.parametrize("storage", COUNT_STORAGES)
def test_update_and_rescale_on_each_storage(storage):
    rng = random.Random(9)
    k = 90
    counts = [rng.randint(1, 9) for _ in range(k)]
    given_counts = COUNT_STORAGES[storage](counts)
    initial = list(counts)
    m = LinearModel(given_counts)
    assert type(m.h) is list and type(m.hk) is list
    hk = m.hk
    cap_rescales = 0
    # a low cap makes some updates rescale first, besides the periodic ones
    with mock.patch.object(linear_model, "MAX_TOTALCOUNT", 600):
        for _ in range(2):
            for _ in range(400):
                sym = rng.randrange(k)
                before = (m.update_accesses, m.rescale_accesses)
                rescaled = m.update(sym)
                if rescaled:
                    cap_rescales += 1
                    counts = reference_rescale(counts)[0]
                counts[sym] += 1
                assert m.update_accesses - before[0] == k - sym + 1
                assert m.rescale_accesses - before[1] == 3 * k * rescaled
                assert (m.h, hk, m.total_count) == reference_model(counts)
            before = m.rescale_accesses
            m.rescale()
            counts = reference_rescale(counts)[0]
            assert m.rescale_accesses - before == 3 * k
            assert m.hk is hk
            # an update after a rescale shows through the list callers hold
            m.update(5)
            counts[5] += 1
            assert hk == reference_model(counts)[1]
    assert cap_rescales
    assert list(given_counts) == initial


INVALID_COUNTS = [
    ([], True, ValueError, "at least one symbol"),
    ([], False, ValueError, "at least one symbol"),
    ([3, -1, 2], False, ValueError, "non-negative"),
    ([0, -1], True, ValueError, "non-negative"),
    ([3, 0, 2], True, ValueError, "every count >= 1"),
    ([MAX_TOTALCOUNT, 1], False, OverflowError, "exceeds MAX_TOTALCOUNT"),
    ([MAX_TOTALCOUNT // 2 + 1] * 2, True, OverflowError, "exceeds MAX_TOTALCOUNT"),
]


@pytest.mark.parametrize("counts,adaptive,exc,message", INVALID_COUNTS)
def test_construction_rejects_invalid_counts(counts, adaptive, exc, message):
    with pytest.raises(exc, match=message):
        LinearModel(counts, adaptive=adaptive)


@pytest.mark.parametrize("counts,adaptive,exc,message", INVALID_COUNTS)
def test_fenwick_construction_rejects_invalid_counts(counts, adaptive, exc,
                                                     message):
    # both models check their counts through linear_model.prefix_sums
    with pytest.raises(exc, match=message):
        FenwickModel(counts, adaptive=adaptive)


def test_rescale_bounds_total():
    rng = random.Random(2)
    counts = [rng.randint(1, 500) for _ in range(20)]
    m = LinearModel(counts)
    old_total = m.total_count
    m.rescale()
    assert min(m.h) >= 1
    assert m.total_count <= -(-old_total // 2) + 10


def linear_state(m):
    return (list(m.h), list(m.hk), m.total_count, m.update_accesses,
            m.rescale_accesses)


@pytest.mark.parametrize("storage", COUNT_STORAGES)
@pytest.mark.parametrize("k", (4, 40))
def test_update_rejects_symbol_out_of_range(k, storage):
    """A symbol outside [0, K) raises IndexError and changes nothing, not
    even at the count cap, where an update rescales first.  ``update(-1)``
    used to wrap: on ``flat(40)`` it raised every boundary, ``hk[0]``
    included, and the total went to 41."""
    with count_cap(k + 1):
        m = LinearModel(COUNT_STORAGES[storage]([1] * k))
        m.update(k - 1)  # the total reaches the cap
        before = linear_state(m)
        for sym in (-1, -k, k, k + 5):
            with pytest.raises(IndexError):
                m.update(sym)
            assert linear_state(m) == before
        assert m.hk[0] == 0
