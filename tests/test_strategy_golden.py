"""Golden decode results for every runnable (mode, model, strategy) cell.

One fixed input is encoded under each configuration and decoded with each
compatible search.  The payload digest pins the IRC1 bytes; the counters
pin how much work each search and model did.  A change to how the decoder
dispatches its search must leave every value here unchanged.
"""

import hashlib

import pytest

from rangekit.bench import iteration_histogram
from rangekit.datagen import GenSpec, gen_sequence
from rangekit.rangecoder import (
    CoderConfig, DecodeStats, decode_stream, encode_stream,
)

from conftest import count_cap

K = 21
SPEC = GenSpec("geometric", K, 3000, 9)
INTERVAL = 256

# (mode, model, rescale, strategy) -> (payload sha256, symbols,
#  search_iterations, iteration_histogram, update_accesses, rescale_accesses)
GOLDEN = {
    ("static", "linear", "orig", "lin-fwd"): (
        "2d2beb3b0dfbc20809c79558eeaad7bafedd1f8c6a99994529784472da8bc216",
        3000, 6029, {1: 1499, 2: 734, 3: 375, 4: 208, 5: 95, 6: 42, 7: 26, 8: 9, 9: 3, 10: 5, 11: 3, 14: 1},
        0, 0),
    ("static", "linear", "orig", "lin-bwd"): (
        "2d2beb3b0dfbc20809c79558eeaad7bafedd1f8c6a99994529784472da8bc216",
        3000, 59971, {8: 1, 11: 3, 12: 5, 13: 3, 14: 9, 15: 26, 16: 42, 17: 95, 18: 208, 19: 375, 20: 734, 21: 1499},
        0, 0),
    ("static", "linear", "orig", "log"): (
        "2d2beb3b0dfbc20809c79558eeaad7bafedd1f8c6a99994529784472da8bc216",
        3000, 14154, {4: 846, 5: 2154},
        0, 0),
    ("static", "linear", "orig", "log2"): (
        "2d2beb3b0dfbc20809c79558eeaad7bafedd1f8c6a99994529784472da8bc216",
        3000, 11647, {2: 1499, 5: 357, 6: 1144},
        0, 0),
    ("static", "linear", "orig", "exp"): (
        "2d2beb3b0dfbc20809c79558eeaad7bafedd1f8c6a99994529784472da8bc216",
        3000, 6133, {1: 1499, 2: 734, 3: 208, 4: 375, 5: 77, 6: 95, 7: 9, 8: 3},
        0, 0),
    ("static", "linear", "orig", "tree"): (
        "2d2beb3b0dfbc20809c79558eeaad7bafedd1f8c6a99994529784472da8bc216",
        3000, 6019, {1: 734, 2: 1707, 3: 417, 4: 104, 5: 29, 6: 5, 7: 3, 8: 1},
        0, 0),
    ("static", "linear", "orig", "table"): (
        "2d2beb3b0dfbc20809c79558eeaad7bafedd1f8c6a99994529784472da8bc216",
        3000, 3000, {1: 3000},
        0, 0),
    ("static", "fenwick", "orig", "bi"): (
        "e6017b4d2a9ae5bd8d93e3b2a5a52c99dd8a08f0adceca722637c9e36bac8972",
        3000, 15000, {5: 3000},
        0, 0),
    ("adaptive", "linear", "orig", "lin-fwd"): (
        "7e745f78450aeb12fdf037a64c21727226d4b890f3d4bc49aa4774750bed4d54",
        3000, 6029, {1: 1499, 2: 734, 3: 375, 4: 208, 5: 95, 6: 42, 7: 26, 8: 9, 9: 3, 10: 5, 11: 3, 14: 1},
        62971, 693),
    ("adaptive", "linear", "orig", "lin-bwd"): (
        "7e745f78450aeb12fdf037a64c21727226d4b890f3d4bc49aa4774750bed4d54",
        3000, 59971, {8: 1, 11: 3, 12: 5, 13: 3, 14: 9, 15: 26, 16: 42, 17: 95, 18: 208, 19: 375, 20: 734, 21: 1499},
        62971, 693),
    ("adaptive", "linear", "orig", "log"): (
        "7e745f78450aeb12fdf037a64c21727226d4b890f3d4bc49aa4774750bed4d54",
        3000, 14154, {4: 846, 5: 2154},
        62971, 693),
    ("adaptive", "linear", "orig", "log2"): (
        "7e745f78450aeb12fdf037a64c21727226d4b890f3d4bc49aa4774750bed4d54",
        3000, 17146, {4: 1, 5: 852, 6: 2147},
        62971, 693),
    ("adaptive", "linear", "orig", "exp"): (
        "7e745f78450aeb12fdf037a64c21727226d4b890f3d4bc49aa4774750bed4d54",
        3000, 6133, {1: 1499, 2: 734, 3: 208, 4: 375, 5: 77, 6: 95, 7: 9, 8: 3},
        62971, 693),
    ("adaptive", "linear", "orig", "table"): (
        "7e745f78450aeb12fdf037a64c21727226d4b890f3d4bc49aa4774750bed4d54",
        3000, 3000, {1: 3000},
        62971, 693),
    ("adaptive", "fenwick", "orig", "bi"): (
        "da9d1e50fef838809a80d30eb7455bb9121765d67b799d1c4261b6cb46095866",
        3000, 15000, {5: 3000},
        13195, 1089),
    ("adaptive", "fenwick", "new", "bi"): (
        "bef308daa179214164a4e8252372287be1d4375cd40bafc8ed295b730fb9aac7",
        3000, 15000, {5: 3000},
        13195, 572),
}

# the same fields for streams coded with no periodic rescale under a count
# cap lowered to CAP, so every rescale is the one ``update`` runs at the cap
CAP = 512
CAPPED_GOLDEN = {
    ("adaptive", "fenwick", "orig", "bi"): (
        "406d0de4f4f55fcabb29b8edc40d8b951538e5f896f580d84ce626023736aad1",
        3000, 15000, {5: 3000},
        13195, 1089),
    ("adaptive", "fenwick", "new", "bi"): (
        "6a81d979feb4695921546636c11888e5d4ba167522631439d055a3d4b3c70dc4",
        3000, 15000, {5: 3000},
        13195, 572),
    ("adaptive", "linear", "orig", "log"): (
        "593d86fdaa3666538a8691091408f75d1ca0ad394cf49ce648ca603f46c13e8e",
        3000, 14154, {4: 846, 5: 2154},
        62971, 693),
}


@pytest.fixture(scope="module")
def sequence():
    return gen_sequence(SPEC).tolist()


@pytest.mark.parametrize("cell", sorted(GOLDEN), ids="-".join)
def test_decode_matches_golden(cell, sequence):
    mode, model, rescale, strategy = cell
    sha, symbols, iterations, histogram, updates, rescales = GOLDEN[cell]
    cfg = CoderConfig(mode, model, rescale,
                      INTERVAL if mode == "adaptive" else 0)
    payload = encode_stream(sequence, K, cfg)
    assert hashlib.sha256(payload).hexdigest() == sha
    stats = DecodeStats()
    _, out = decode_stream(payload, strategy, stats)
    assert out == sequence
    assert stats.symbols == symbols
    assert stats.search_iterations == iterations
    assert dict(stats.iteration_histogram) == histogram
    assert stats.update_accesses == updates
    assert stats.rescale_accesses == rescales


@pytest.mark.parametrize("cell", sorted(CAPPED_GOLDEN), ids="-".join)
def test_capped_decode_matches_golden(cell, sequence):
    mode, model, rescale, strategy = cell
    with count_cap(CAP):
        payload = encode_stream(sequence, K, CoderConfig(mode, model, rescale, 0))
        stats = DecodeStats()
        _, out = decode_stream(payload, strategy, stats)
    assert out == sequence
    assert (hashlib.sha256(payload).hexdigest(), stats.symbols,
            stats.search_iterations, dict(stats.iteration_histogram),
            stats.update_accesses, stats.rescale_accesses) == CAPPED_GOLDEN[cell]


@pytest.mark.parametrize(
    "strategy", [s for (mode, model, _, s) in GOLDEN
                 if (mode, model) == ("static", "linear")])
def test_replay_matches_static_decode(strategy, sequence):
    # below the static total limit the header keeps the raw counts, so
    # replaying captured code values sees what the static decoder saw
    histogram = GOLDEN[("static", "linear", "orig", strategy)][3]
    stats = iteration_histogram(strategy, sequence, K)
    n = len(sequence)
    assert stats.histogram == {it: 100.0 * cnt / n
                               for it, cnt in sorted(histogram.items())}
