"""Acceptance gate: twelve criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Work counters are deterministic, so every numeric check
here is reproducible; wall-clock speed is deliberately never asserted.
"""

import math
import random
from contextlib import contextmanager

import numpy as np

from rangekit.bench import empirical_entropy, iteration_histogram
from rangekit.datagen import GenSpec, gen_sequence
from rangekit.fenwick_model import FenwickModel, forward_step, parent_index
from rangekit.linear_model import LinearModel
from rangekit.rangecoder import (
    CoderConfig, DecodeStats, decode_stream, encode_stream,
    strategy_compatible, _HEADER_SIZE,
)
from rangekit import search as _search
from rangekit.search import STRATEGIES, changed_slots

from conftest import (
    REF19_COUNTS, REF19_HK, REF19_V, TOY_COUNTS, TOY_TABLE,
    TOY_TABLE_AFTER,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num:02d}: {name}")
        raise
    print(f"[PASS] criterion {num:02d}: {name}")


def test_criterion_01_hierarchical_array_fixture():
    with criterion(1, "19-symbol hierarchical array and cumulative counts"):
        m = FenwickModel(REF19_COUNTS)
        assert m.v == REF19_V
        assert [m.cum(i) for i in range(20)] == REF19_HK
        assert m.cum(19) == 43


def test_criterion_02_bit_operation_fixture():
    with criterion(2, "lowest-set-bit step and parent index, rows 1..11"):
        rows = [
            (1, 1, 0), (2, 2, 0), (3, 1, 2), (4, 4, 0), (5, 1, 4), (6, 2, 4),
            (7, 1, 6), (8, 8, 0), (9, 1, 8), (10, 2, 8), (11, 1, 10),
        ]
        for i, step, parent in rows:
            assert forward_step(i) == step
            assert parent_index(i) == parent


def test_criterion_03_lookup_table_fixture():
    with criterion(3, "4-symbol lookup table build and repair"):
        table = _search.LookupTable.create(TOY_COUNTS)
        assert table.t == TOY_TABLE
        m = LinearModel(list(TOY_COUNTS))
        m.update(1)
        before = list(table.t)
        table.update(m.hk, 1)
        assert changed_slots(before, table.t) == [5, 6, 10]
        assert table.t == TOY_TABLE_AFTER


def test_criterion_04_iteration_statistics_k64():
    with criterion(4, "K=64 geometric search-iteration statistics"):
        seq = gen_sequence(GenSpec("geometric", 64, 10 ** 6, 7)).tolist()

        log_stats = iteration_histogram("log", seq, 64)
        assert abs(log_stats.average - 6.2) <= 0.1
        assert set(log_stats.histogram) == {6, 7}
        assert abs(log_stats.histogram[7] - 15.9) <= 2.0

        tree_stats = iteration_histogram("tree", seq, 64)
        assert abs(tree_stats.average - 3.4) <= 0.3

        log2_stats = iteration_histogram("log2", seq, 64)
        assert abs(log2_stats.average - 5.2) <= 0.3


def test_criterion_05_fenwick_linear_equivalence():
    with criterion(5, "fenwick/linear equivalence under random updates"):
        rng = random.Random(501)

        def run(k, n_ops):
            fm = FenwickModel.flat(k)
            counts = [1] * k
            for _ in range(n_ops):
                if rng.random() < 0.002:
                    fm.rescale_orig()
                    counts = [c - (c >> 1) for c in counts]
                else:
                    s = rng.randrange(k)
                    fm.update(s)
                    counts[s] += 1
            lin = LinearModel(counts)
            assert [fm.cum(i) for i in range(k + 1)] == list(lin.hk)
            assert [fm.count(s) for s in range(k)] == counts

        for k in range(1, 33):  # exhaustive small alphabets
            run(k, 3200)
        for k in (100, 256, 1000):
            run(k, 100_000 // 3)


def test_criterion_06_search_agreement():
    with criterion(6, "all strategies agree with the linear-scan oracle"):
        rng = random.Random(601)
        for k in (2, 3, 4, 19, 64, 257, 1024):
            hi = 8 if k <= 64 else 2  # keep totals small so c sweeps stay cheap
            for _ in range(100):
                counts = [rng.randint(1, hi) for _ in range(k)]
                lin = LinearModel(counts)
                fm = FenwickModel(counts)
                hk = lin.hk
                tree = _search.build_search_tree(hk)
                table = _search.LookupTable.create(counts)
                i_mid = _search.determine_initial_split(hk)
                total = min(lin.total_count, 4096)
                for c in range(total):
                    want = _search.linear_forward(c, hk)[0]
                    assert _search.linear_backward(c, hk)[0] == want
                    assert _search.logarithmic(c, hk)[0] == want
                    assert _search.log2_search(c, hk, i_mid)[0] == want
                    assert _search.exponential(c, hk)[0] == want
                    assert _search.tree_search(c, hk, tree)[0] == want
                    assert table.lookup(c) == want
                    assert _search.binary_indexed(c, fm)[0] == want


def test_criterion_07_round_trip_identity():
    with criterion(7, "round trip over the full configuration grid"):
        rng = random.Random(701)
        small = [rng.choices(range(21), weights=range(21, 0, -1))[0]
                 for _ in range(3000)]
        gen = gen_sequence(GenSpec("geometric", 21, 3000, 9)).tolist()
        for mode in ("static", "adaptive"):
            for model in ("linear", "fenwick"):
                for rescale in ("orig", "new"):
                    for interval in (0, 1024):
                        cfg = CoderConfig(mode, model, rescale, interval)
                        for data in (small, gen):
                            payload = encode_stream(data, 21, cfg)
                            for strat in STRATEGIES:
                                if strategy_compatible(strat, model, mode):
                                    continue
                                _, out = decode_stream(payload, strat)
                                assert out == data
        # two full-length cells
        big = gen_sequence(GenSpec("geometric", 16, 10 ** 5, 5)).tolist()
        cfg = CoderConfig("adaptive", "linear", "orig", 1024)
        _, out = decode_stream(encode_stream(big, 16, cfg), "log")
        assert out == big
        cfg = CoderConfig("static", "fenwick", "orig", 0)
        _, out = decode_stream(encode_stream(big, 16, cfg), "bi")
        assert out == big


def test_criterion_08_cross_model_bitstreams():
    with criterion(8, "linear and fenwick adaptive coded bytes identical"):
        rng = random.Random(801)
        for _ in range(20):
            k = rng.randint(2, 24)
            n = rng.randint(1, 1500)
            interval = rng.choice((0, 256))
            data = [rng.randrange(k) for _ in range(n)]
            a = encode_stream(data, k, CoderConfig("adaptive", "linear",
                                                   "orig", interval))
            b = encode_stream(data, k, CoderConfig("adaptive", "fenwick",
                                                   "orig", interval))
            # headers differ in exactly the model byte; the coded bytes
            # themselves must match bit for bit
            assert a[_HEADER_SIZE:] == b[_HEADER_SIZE:]


def test_criterion_09_entropy_efficiency():
    with criterion(9, "static geometric K=256 payload near the entropy bound"):
        k, n = 256, 10 ** 6
        seq = gen_sequence(GenSpec("geometric", k, n, 11)).tolist()
        payload = encode_stream(seq, k, CoderConfig("static", "linear"))
        h0 = empirical_entropy(seq, k)
        header_bytes = _HEADER_SIZE + 4 * k
        assert len(payload) <= 1.01 * n * h0 / 8 + header_bytes + 16


def test_criterion_10_rescale_complexity():
    with criterion(10, "rescale access counts match the complexity claims"):
        rng = random.Random(1001)

        def access_counts(k):
            counts = [rng.randint(1, 100) for _ in range(k)]
            a = FenwickModel(counts)
            a.rescale_orig()
            b = FenwickModel(counts, rescale_variant="new")
            b.rescale_new()
            return a.rescale_accesses, b.rescale_accesses

        for k in (16, 64, 256, 1024):
            orig, new = access_counts(k)
            formula = 4 * k + (math.log2(k) - 2) * k / 2
            assert abs(orig - formula) <= 0.15 * formula
            assert new <= 3 * k + 8
        for k in list(range(8, 130)) + [256, 512, 1024]:
            orig, new = access_counts(k)
            assert new < orig


def test_criterion_11_rescale_safety():
    with criterion(11, "rescales keep counts >= 1 and boundaries strict"):
        rng = random.Random(1101)
        for _ in range(10_000):
            k = rng.randint(1, 40)
            counts = [rng.randint(1, 10_000) for _ in range(k)]
            for variant in ("orig", "new"):
                m = FenwickModel(counts, rescale_variant=variant)
                m.rescale()
                assert all(m.count(s) >= 1 for s in range(k))
                cums = [m.cum(i) for i in range(k + 1)]
                assert all(b > a for a, b in zip(cums, cums[1:]))
            lm = LinearModel(counts)
            lm.rescale()
            assert min(lm.h) >= 1


def test_criterion_12_growth_shapes():
    with criterion(12, "iteration/access growth shapes across K = 2..1024"):
        for exp_k in range(1, 11):
            k = 1 << exp_k
            n = 5000 if k >= 256 else 20_000
            seq = gen_sequence(GenSpec("flat", k, n, 13)).tolist()

            assert iteration_histogram("table", seq, k).average == 1.0

            fwd = iteration_histogram("lin-fwd", seq, k).average
            assert abs(fwd - (k + 1) / 2) <= 0.05 * ((k + 1) / 2)

            logavg = iteration_histogram("log", seq, k).average
            assert logavg <= math.log2(k) + 1

            payload = encode_stream(seq, k, CoderConfig("adaptive", "fenwick"))
            stats = DecodeStats()
            decode_stream(payload, "bi", stats)
            per_sym = stats.update_accesses / n
            assert per_sym <= 2 * (int(math.log2(k)) + 1)

            payload = encode_stream(seq, k, CoderConfig("adaptive", "linear"))
            stats = DecodeStats()
            decode_stream(payload, "log", stats)
            lin_per_sym = stats.update_accesses / n
            # flat data hits the average symbol, so ~K/2 boundary writes
            assert 0.4 * k <= lin_per_sym <= 0.7 * k + 3
