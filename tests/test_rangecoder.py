import copy
import random
import struct
from array import array
from collections import Counter
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rangekit.datagen import MAX_ALPHABET
from rangekit.fenwick_model import FenwickModel
from rangekit import linear_model, rangecoder
from rangekit.linear_model import LinearModel
from rangekit.rangecoder import (
    MAGIC, MASK32, MAX_SYMBOLS, STATIC_TOTAL_LIMIT, TOP, VERSION, CoderConfig,
    DecodeStats, Decoder, Encoder, StreamFormatError, StreamHeader, ZeroCountError,
    count_stream, decode_stream, default_strategy, encode_stream, normalize_counts,
    pack_header, strategy_compatible, unpack_header, _HEADER_SIZE,
)
from rangekit.search import STRATEGIES

from conftest import N_AT, count_cap, mutate, time_limit


def test_encoder_initial_registers():
    enc = Encoder()
    assert enc.low == 0
    assert enc.range == MASK32
    assert enc.cache_size == 1
    assert enc.out == bytearray()


def test_finish_is_five_bytes():
    assert Encoder().finish() == b"\x00" * 5


def test_encode_rejects_zero_width_interval():
    with pytest.raises(ZeroCountError):
        Encoder().encode(3, 0, 10)


def test_decoder_preloads_five_bytes():
    dec = Decoder(b"\x00\x12\x34\x56\x78\x9a")
    # the first (flush-artifact) byte is shifted out of the 32-bit register
    assert dec.code == 0x12345678
    assert dec.pos == 5


def test_decoder_rejects_short_payload():
    with pytest.raises(StreamFormatError):
        Decoder(b"\x00\x00")


def test_raw_coder_round_trip_with_carry_pressure():
    # skewed two-symbol model keeps low hovering near the carry boundary
    rng = random.Random(9)
    hk = [0, 1, 1000]
    syms = [rng.choices((0, 1), weights=(1, 999))[0] for _ in range(5000)]
    enc = Encoder()
    for s in syms:
        enc.encode(hk[s], hk[s + 1] - hk[s], 1000)
    payload = enc.finish()
    dec = Decoder(payload)
    for s in syms:
        c = dec.decode_target(1000)
        got = 0 if c < 1 else 1
        assert got == s
        dec.consume(hk[got], hk[got + 1] - hk[got])


def test_decode_target_stays_in_interval():
    rng = random.Random(4)
    dec = Decoder(bytes([0] + [rng.randrange(256) for _ in range(40)]))
    for total in (1, 2, 7, 255, 1 << 16, 1 << 20):
        c = dec.decode_target(total)
        assert 0 <= c < total
        dec.consume(c, 1)


def test_range_never_collapses():
    # total is capped at 2^20 < 2^24, so range // total >= 1 post-renorm
    assert TOP > 1 << 20


@pytest.mark.parametrize("mode", ("static", "adaptive"))
def test_header_round_trip(mode):
    counts = (5, 0, 3) if mode == "static" else None
    h = StreamHeader(mode, "fenwick", "new", 0 if mode == "static" else 512,
                     3, 1234, counts)
    packed = pack_header(h)
    got, offset = unpack_header(packed + b"coded")
    assert got == h
    assert offset == len(packed)


@pytest.mark.parametrize("make", (tuple, list, lambda c: array("I", c)),
                         ids=("tuple", "list", "array"))
def test_static_header_holds_its_counts_as_one_array(make):
    """A static header built from a tuple, a list or an ``array('I')``
    holds its counts as one ``array('I')`` (the array itself, when given
    one), packs to the same bytes and equals its parsed copy."""
    counts = (5, 0, 3)
    header = StreamHeader("static", "linear", "orig", 0, 3, 9, make(counts))
    assert header.counts == array("I", counts)
    assert header.counts.typecode == "I"
    packed = pack_header(header)
    assert packed == pack_header(StreamHeader("static", "linear", "orig", 0,
                                              3, 9, counts))
    assert unpack_header(packed) == (header, len(packed))
    table = array("I", counts)
    assert StreamHeader("static", "linear", "orig", 0, 3, 9, table).counts is table


@settings(deadline=None, max_examples=60)
@given(st.sampled_from((1, 2, 255, 256, MAX_ALPHABET)),
       st.sampled_from(("linear", "fenwick")), st.integers(0, 1 << 32),
       st.sampled_from((0.0, 0.5, 1.0)), st.integers(1, 1 << 16))
def test_header_table_matches_struct_reference(k, model, seed, zeros, n):
    """``pack_header`` writes the count table as ``struct.pack("<kI")``
    does, zero counts included, and ``unpack_header`` reads it back as a
    tuple of ints."""
    rng = random.Random(seed)
    most = linear_model.MAX_TOTALCOUNT // k
    counts = tuple(0 if rng.random() < zeros else rng.randint(1, most)
                   for _ in range(k))
    n = n if any(counts) else 0  # a stream of symbols needs a nonzero total
    header = StreamHeader("static", model, "orig", 0, k, n, counts)
    packed = pack_header(header)
    assert packed == struct.pack("<4sBBBBIIQ", MAGIC, VERSION, 0,
                                 ("linear", "fenwick").index(model), 0, 0, k,
                                 n) + struct.pack(f"<{k}I", *counts)
    got, offset = unpack_header(packed + b"coded")
    assert (got, offset) == (header, len(packed))
    assert all(type(c) is int for c in got.counts)


def test_pack_header_rejects_a_table_of_the_wrong_size():
    for counts in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="counts for an alphabet of size 3"):
            pack_header(StreamHeader("static", "linear", "orig", 0, 3, 1, counts))


@pytest.mark.parametrize("fields, counts, error", [
    ("static", None, "a static header, and no other, has a count table"),
    ("adaptive", (1, 2, 3), "a static header, and no other, has a count table"),
    ("static", (1, 2), "2 counts for an alphabet of size 3"),
    ("static", (1, 2, 3), None),
    ("adaptive", None, None),
    ({"mode": "bogus"}, None, "unknown mode: 'bogus'"),
    ({"model": "bogus"}, None, "unknown model: 'bogus'"),
    ({"rescale": "bogus"}, None, "unknown rescale variant: 'bogus'"),
    ({"rescale_interval": 1 << 33}, None,
     r"rescale interval must be in \[0, 2\*\*32\), got 8589934592"),
    ({"rescale_interval": -1}, None,
     r"rescale interval must be in \[0, 2\*\*32\), got -1"),
    ({"k": 1 << 33}, None,
     r"alphabet size must be in \[0, 2\*\*32\), got 8589934592"),
    ({"n": 1 << 65}, None,
     r"symbol count must be in \[0, 2\*\*64\), got 36893488147419103232"),
    ({"n": -1}, None, r"symbol count must be in \[0, 2\*\*64\), got -1"),
    ({"rescale_interval": (1 << 32) - 1, "n": (1 << 64) - 1}, None, None),
    ({"k": 3.0}, None, "alphabet size must be an integer, got 3.0"),
    ({"rescale_interval": 1.5}, None,
     "rescale interval must be an integer, got 1.5"),
    ({"n": 1.0}, None, r"symbol count must be an integer, got 1\.0"),
    ({"k": np.int64(3), "n": np.uint64(1)}, None, None),
    ("static", (1, -1, 3), r"counts must be integers in \[0, 2\*\*32\)"),
    ("static", (1, 1 << 32, 3), r"counts must be integers in \[0, 2\*\*32\)"),
    ("static", (1, 2.0, 3), r"counts must be integers in \[0, 2\*\*32\)"),
])
def test_header_builds_only_what_it_can_represent(fields, counts, error):
    """A static header needs a table of K counts and an adaptive one has
    none, every field must be an integer that fits its IRC1 byte or word
    (a numpy integer is one), and every count must fit 32 bits; any other
    header fails with ValueError when it is built, not when it is packed
    or coded.  One that builds packs and unpacks to an equal header.
    ``fields`` is the mode, or the fields that differ from a K=3 adaptive
    header's."""
    args = {"mode": "adaptive", "model": "linear", "rescale": "orig",
            "rescale_interval": 0, "k": 3, "n": 1, "counts": counts}
    args.update({"mode": fields} if isinstance(fields, str) else fields)
    if error:
        with pytest.raises(ValueError, match=error):
            StreamHeader(**args)
    else:
        header = StreamHeader(**args)
        assert unpack_header(pack_header(header))[0] == header


def test_unpack_rejects_bad_magic():
    h = StreamHeader("adaptive", "linear", "orig", 0, 3, 1, None)
    bad = b"XXXX" + pack_header(h)[4:]
    with pytest.raises(StreamFormatError):
        unpack_header(bad)


def test_unpack_rejects_bad_version():
    packed = bytearray(pack_header(StreamHeader("adaptive", "linear", "orig",
                                                0, 3, 1, None)))
    packed[4] = VERSION + 1
    with pytest.raises(StreamFormatError):
        unpack_header(bytes(packed))


def test_unpack_rejects_truncation():
    packed = pack_header(StreamHeader("static", "linear", "orig", 0, 4, 9,
                                      (1, 2, 3, 4)))
    with pytest.raises(StreamFormatError):
        unpack_header(packed[:_HEADER_SIZE - 1])
    with pytest.raises(StreamFormatError):
        unpack_header(packed[:_HEADER_SIZE + 3])  # count table cut short


def test_unpack_rejects_unknown_ids():
    packed = bytearray(pack_header(StreamHeader("adaptive", "linear", "orig",
                                                0, 3, 1, None)))
    packed[6] = 9  # model id out of range
    with pytest.raises(StreamFormatError):
        unpack_header(bytes(packed))


@pytest.mark.parametrize("model", ("linear", "fenwick"))
@pytest.mark.parametrize("counts", [(0, 0, 0), (1 << 20, 1, 0)],
                         ids=["zero-total", "over-max-total"])
def test_unpack_rejects_hostile_static_counts(counts, model):
    packed = pack_header(StreamHeader("static", model, "orig", 0, 3, 9,
                                      counts))
    with pytest.raises(StreamFormatError):
        unpack_header(packed)
    with pytest.raises(StreamFormatError):
        decode_stream(packed + b"\x00" * 5)


@pytest.mark.parametrize("model", ("linear", "fenwick"))
def test_decode_stops_at_end_of_payload(model):
    # 2**40 announced symbols, within the symbol limit given, 5 payload
    # bytes: the decoder must give up as soon as it needs a sixth byte
    # instead of inventing zeros; at the largest alphabet, building the
    # flat model must stay cheap too
    for k in (2, MAX_ALPHABET):
        header = StreamHeader("adaptive", model, "orig", 0, k, 1 << 40, None)
        stats = DecodeStats()
        with time_limit(2), pytest.raises(StreamFormatError):
            decode_stream(pack_header(header) + b"\x00" * 5, stats=stats,
                          max_symbols=1 << 40)
        assert stats == DecodeStats()  # a decode that raises adds nothing


@pytest.mark.parametrize("stats", (None, DecodeStats()), ids=("plain", "counting"))
def test_symbol_limit_rejects_a_header_before_any_decode_work(stats):
    """A header claiming more symbols than ``max_symbols``, by default
    ``MAX_SYMBOLS``, raises StreamFormatError at once, also on a stream
    whose symbols cost no bits, which would otherwise decode them all;
    a stream of exactly ``max_symbols`` symbols decodes.  A rejected
    decode adds no counts."""
    payload = bytearray(encode_stream([0] * 10, 1, CoderConfig("static")))
    assert decode_stream(bytes(payload), stats=stats, max_symbols=10)[1] == [0] * 10
    counted = copy.deepcopy(stats)
    with pytest.raises(StreamFormatError, match="header claims 10 symbols, "
                                                "more than the limit of 9"):
        decode_stream(bytes(payload), stats=stats, max_symbols=9)
    struct.pack_into("<Q", payload, N_AT, MAX_SYMBOLS + 1)
    with time_limit(1), pytest.raises(StreamFormatError,
                                      match=f"the limit of {MAX_SYMBOLS}$"):
        decode_stream(bytes(payload), stats=stats)
    assert stats == counted


@pytest.mark.parametrize("model", ("linear", "fenwick"))
def test_decode_rejects_largest_static_table_quickly(model):
    """The largest count table a header may carry, total 2**20 at K =
    65536, with a 5-byte payload: the decode fails on running out of
    bytes, within a generous limit, with and without counting."""
    k = MAX_ALPHABET
    header = StreamHeader("static", model, "orig", 0, k, 1 << 16,
                          (linear_model.MAX_TOTALCOUNT // k,) * k)
    payload = pack_header(header) + b"\x00" * 5
    for stats in (None, DecodeStats()):
        with time_limit(10), pytest.raises(StreamFormatError):
            decode_stream(payload, stats=stats)


@pytest.mark.parametrize("n", (0, 300))
def test_decode_rejects_trailing_and_missing_bytes(n):
    # a valid stream's decoder reads exactly its payload, no more, no less
    rng = random.Random(16)
    data = [rng.randrange(5) for _ in range(n)]
    for cfg in (CoderConfig("adaptive", "linear"), CoderConfig("static", "fenwick")):
        payload = encode_stream(data, 5, cfg)
        assert decode_stream(payload)[1] == data
        for bad in (payload + b"\0", payload[:-1]):
            with pytest.raises(StreamFormatError):
                decode_stream(bad)


def test_unpack_accepts_empty_static_stream():
    payload = encode_stream([], 3, CoderConfig("static", "linear"))
    header, _ = unpack_header(payload)
    assert header.counts == array("I", [0, 0, 0])
    assert decode_stream(payload)[1] == []


def test_normalize_counts_small_passthrough():
    assert normalize_counts([3, 0, 5]) == array("I", [3, 0, 5])


def test_normalize_counts_total_bound():
    # flooring nonzero counts at one lifts the total above the limit, but
    # it stays below the limit plus K, which is within MAX_TOTALCOUNT
    counts = [1] * 60000 + [60000]
    scaled = normalize_counts(counts)
    assert sum(scaled) == 90000
    assert STATIC_TOTAL_LIMIT < sum(scaled) < STATIC_TOTAL_LIMIT + len(counts)
    assert STATIC_TOTAL_LIMIT + MAX_ALPHABET <= linear_model.MAX_TOTALCOUNT
    data = list(range(60000)) + [60000] * 60000
    payload = encode_stream(data, 60001, CoderConfig("static", "linear"))
    header, out = decode_stream(payload)
    assert sum(header.counts) == 90000
    assert out == data


def test_normalize_counts_scaling():
    counts = [1 << 18, 1, 0, 3]
    scaled = normalize_counts(counts)
    assert sum(scaled) <= 1 << 16
    assert scaled[1] == 1  # observed symbols keep an interval
    assert scaled[2] == 0


def reference_normalize_counts(counts):
    """``normalize_counts`` as a list comprehension over Python ints: the
    reference of the numpy version."""
    total = sum(counts)
    if total <= STATIC_TOTAL_LIMIT:
        return list(counts)
    s = -(-total // STATIC_TOTAL_LIMIT)
    return [max(1, c // s) if c else 0 for c in counts]


@settings(deadline=None, max_examples=80)
@given(st.sampled_from((1, 2, 256, MAX_ALPHABET)),
       st.one_of(st.integers(0, STATIC_TOTAL_LIMIT - 1),
                 st.just(STATIC_TOTAL_LIMIT),
                 st.integers(STATIC_TOTAL_LIMIT + 1, 1 << 20),
                 st.integers(1 << 20, 1 << 40)),
       st.sampled_from((0.0, 0.5, 0.99)), st.integers(0, 1 << 32))
def test_normalize_counts_matches_the_list_reference(k, total, zeros, seed):
    """For totals below, at and above STATIC_TOTAL_LIMIT, with zero
    counts, ``normalize_counts`` of a list and of an ``np.bincount``
    result give the reference's table, and a header packs it to the
    reference's bytes.  Totals past 2**20 are drawn as the int64 array
    ``np.bincount`` returns, without symbols to count."""
    rng = np.random.default_rng(seed)
    weights = rng.random(k) * (rng.random(k) >= zeros)
    weights[rng.integers(k)] += 1.0  # at least one symbol occurs
    raw = rng.multinomial(total, weights / weights.sum())
    want = reference_normalize_counts(raw.tolist())
    inputs = [raw.tolist(), raw]
    if total <= 1 << 20:
        inputs.append(np.bincount(np.repeat(np.arange(k), raw), minlength=k))
    for counts in inputs:
        got = normalize_counts(counts)
        assert got == array("I", want)
        header = StreamHeader("static", "linear", "orig", 0, k, 1, got)
        assert pack_header(header)[_HEADER_SIZE:] == struct.pack(f"<{k}I", *want)


def test_config_validation():
    with pytest.raises(ValueError):
        CoderConfig(mode="bogus")
    with pytest.raises(ValueError):
        CoderConfig(model="trie")
    with pytest.raises(ValueError):
        CoderConfig(rescale="half")
    with pytest.raises(ValueError):
        CoderConfig(rescale_interval=-1)
    with pytest.raises(ValueError):
        CoderConfig(rescale_interval=1 << 32)


def test_non_integer_settings_raise_value_error_before_any_bytes():
    """A float rescale interval or alphabet size raises ValueError when
    the config is built or the symbols are checked, not struct.error
    from ``pack_header``; numpy integers are integers."""
    with mock.patch.object(rangecoder, "pack_header",
                           side_effect=AssertionError("bytes produced")):
        with pytest.raises(ValueError, match="rescale interval must be an integer"):
            CoderConfig(rescale_interval=1.5)
        with pytest.raises(ValueError, match="alphabet size must be an integer"):
            encode_stream([0, 1], 2.0, CoderConfig())
    cfg = CoderConfig("adaptive", "linear", "orig", np.int64(3))
    payload = encode_stream([0, 1, 1], np.int64(2), cfg)
    assert payload == encode_stream([0, 1, 1], 2, CoderConfig(rescale_interval=3))
    assert decode_stream(payload)[1] == [0, 1, 1]


def test_largest_rescale_interval_encodes():
    cfg = CoderConfig("adaptive", "linear", "orig", (1 << 32) - 1)
    header, out = decode_stream(encode_stream([0, 1, 1], 2, cfg))
    assert header.rescale_interval == (1 << 32) - 1
    assert out == [0, 1, 1]


def test_strategy_compatibility_matrix():
    assert strategy_compatible("bi", "fenwick", "adaptive") is None
    assert strategy_compatible("bi", "linear", "adaptive") is not None
    assert strategy_compatible("log", "fenwick", "static") is not None
    assert strategy_compatible("tree", "linear", "adaptive") is not None
    assert strategy_compatible("tree", "linear", "static") is None
    for s in ("lin-fwd", "lin-bwd", "log", "log2", "exp", "table"):
        assert strategy_compatible(s, "linear", "adaptive") is None
    assert strategy_compatible("nope", "linear", "static") is not None


def test_default_strategy():
    assert default_strategy("fenwick") == "bi"
    assert default_strategy("linear") == "log"


def _configs():
    for mode in ("static", "adaptive"):
        for model in ("linear", "fenwick"):
            for rescale in ("orig", "new"):
                for interval in (0, 64):
                    if mode == "static" and interval:
                        continue
                    yield CoderConfig(mode, model, rescale, interval)


@pytest.mark.parametrize("cfg", list(_configs()),
                         ids=lambda c: f"{c.mode}-{c.model}-{c.rescale}-{c.rescale_interval}")
def test_stream_round_trip_all_configs(cfg):
    rng = random.Random(11)
    data = [rng.choices(range(9), weights=range(9, 0, -1))[0]
            for _ in range(2000)]
    payload = encode_stream(data, 9, cfg)
    header, out = decode_stream(payload)
    assert out == data
    assert header.mode == cfg.mode
    assert header.model == cfg.model
    assert header.n == 2000


@pytest.mark.parametrize("dtype", (np.uint8, np.uint16))
@pytest.mark.parametrize("mode,model", [
    (mode, model) for mode in ("static", "adaptive")
    for model in ("linear", "fenwick")])
def test_encode_numpy_symbols_as_ints(mode, model, dtype):
    """A numpy array encodes as the list of its ints, also when it holds
    the largest symbol its dtype can store (K = 2**bits)."""
    k = np.iinfo(dtype).max + 1
    symbols = np.array([0, k - 1, 3, k - 1, 1], dtype=dtype)
    cfg = CoderConfig(mode, model, "orig", 2 if mode == "adaptive" else 0)
    with time_limit(10):
        payload = encode_stream(symbols, k, cfg)
    assert payload == encode_stream(symbols.tolist(), k, cfg)
    assert decode_stream(payload)[1] == symbols.tolist()


def test_round_trip_every_strategy():
    rng = random.Random(12)
    data = [rng.randrange(13) for _ in range(1500)]
    for mode in ("static", "adaptive"):
        for model in ("linear", "fenwick"):
            cfg = CoderConfig(mode, model, "orig", 0)
            payload = encode_stream(data, 13, cfg)
            for strat in STRATEGIES:
                if strategy_compatible(strat, model, mode):
                    continue
                _, out = decode_stream(payload, strat)
                assert out == data


def test_strategy_choice_never_changes_output():
    rng = random.Random(13)
    data = [rng.choices(range(6), weights=(30, 10, 5, 3, 2, 1))[0]
            for _ in range(3000)]
    payload = encode_stream(data, 6, CoderConfig("adaptive", "linear", "orig", 256))
    outs = {s: decode_stream(payload, s)[1]
            for s in STRATEGIES if not strategy_compatible(s, "linear", "adaptive")}
    assert all(o == data for o in outs.values())


def test_cross_model_payloads_identical():
    """Linear halving and fenwick per-symbol rescale track the same counts,
    so the coded bytes (everything past the header) must match."""
    rng = random.Random(14)
    data = [rng.choices(range(5), weights=(16, 8, 4, 2, 1))[0]
            for _ in range(4000)]
    for interval in (0, 128):
        a = encode_stream(data, 5, CoderConfig("adaptive", "linear", "orig", interval))
        b = encode_stream(data, 5, CoderConfig("adaptive", "fenwick", "orig", interval))
        assert a[_HEADER_SIZE:] == b[_HEADER_SIZE:]
        assert a[:_HEADER_SIZE] != b[:_HEADER_SIZE]  # model byte differs


def test_empty_stream():
    payload = encode_stream([], 7, CoderConfig())
    assert payload == payload[:_HEADER_SIZE] + b"\x00" * 5
    header, out = decode_stream(payload)
    assert out == []
    assert header.n == 0


@pytest.mark.parametrize("mode", ("static", "adaptive"))
@pytest.mark.parametrize("model", ("linear", "fenwick"))
def test_empty_stream_decodes_on_the_common_path(mode, model):
    # the model comes from the header alone: an all-zero static table or
    # flat adaptive counts; no symbol is decoded and none is counted
    payload = encode_stream([], 5, CoderConfig(mode, model))
    for strategy in STRATEGIES:
        if strategy_compatible(strategy, model, mode) is None:
            stats = DecodeStats()
            assert decode_stream(payload, strategy, stats)[1] == []
            assert stats == DecodeStats()
    for bad in (payload + b"\0", payload[:-1]):
        with pytest.raises(StreamFormatError):
            decode_stream(bad)


def test_single_symbol_alphabet():
    payload = encode_stream([0] * 100, 1, CoderConfig("adaptive", "linear"))
    _, out = decode_stream(payload)
    assert out == [0] * 100


def test_static_stream_with_unused_symbols():
    data = [0, 4, 4, 0, 4]
    payload = encode_stream(data, 5, CoderConfig("static", "linear"))
    header, out = decode_stream(payload)
    assert out == data
    assert header.counts[1] == 0


def static_streams():
    """(K, symbols) pairs: short streams, and streams just long enough
    that ``normalize_counts`` scales their counts."""
    return st.integers(1, 300).flatmap(lambda k: st.tuples(st.just(k), st.one_of(
        st.lists(st.integers(0, k - 1), max_size=300),
        st.integers(0, 1 << 32).map(lambda seed: random.Random(seed).choices(
            range(k), k=STATIC_TOTAL_LIMIT + 2 * k)))))


@settings(deadline=None, max_examples=100)
@given(static_streams())
@example((1, []))
@example((1, [0] * (2 * STATIC_TOTAL_LIMIT + 1)))
def test_static_header_counts_normalize_the_symbol_counts(stream):
    """A static header's counts are ``normalize_counts`` of the symbols'
    counts, also for the empty stream and at K = 1."""
    k, syms = stream
    tally = Counter(syms)
    header, _ = unpack_header(encode_stream(syms, k, CoderConfig("static")))
    assert header.counts == normalize_counts([tally[s] for s in range(k)])


def test_encode_rejects_out_of_range_symbol():
    # checked before the static first pass counts symbols
    for mode in ("static", "adaptive"):
        for bad in (7, -1):
            with pytest.raises(ValueError, match="outside alphabet"):
                encode_stream([0, bad, 3], 7, CoderConfig(mode))


@pytest.mark.parametrize("k", (0, MAX_ALPHABET + 1))
def test_encode_rejects_alphabet_size(k):
    with pytest.raises(ValueError):
        encode_stream([], k, CoderConfig())


def test_largest_alphabet_round_trip():
    data = [0, MAX_ALPHABET - 1, 7]
    for mode in ("static", "adaptive"):
        payload = encode_stream(data, MAX_ALPHABET, CoderConfig(mode))
        assert decode_stream(payload)[1] == data


def test_unpack_rejects_alphabet_size():
    # the header field is 32 bits wide; 65537 is the smallest forged size
    # (never try 2**31 here: an unchecked decoder allocates ~16 GiB)
    header = StreamHeader("adaptive", "linear", "orig", 0, MAX_ALPHABET + 1,
                          1, None)
    with pytest.raises(StreamFormatError):
        unpack_header(pack_header(header) + b"\x00" * 5)


def test_decode_rejects_incompatible_strategy():
    payload = encode_stream([0, 1], 2, CoderConfig("adaptive", "linear"))
    with pytest.raises(ValueError):
        decode_stream(payload, "bi")


def test_decode_stats_collection():
    rng = random.Random(15)
    data = [rng.randrange(8) for _ in range(400)]
    payload = encode_stream(data, 8, CoderConfig("adaptive", "linear"))
    stats = DecodeStats()
    decode_stream(payload, "log", stats)
    assert stats.symbols == 400
    assert stats.search_iterations == sum(
        n * i for i, n in stats.iteration_histogram.items())
    assert stats.update_accesses > 0


def test_decode_stats_add_up_across_decodes():
    rng = random.Random(16)
    data = [rng.randrange(8) for _ in range(200)]
    payload = encode_stream(data, 8, CoderConfig("adaptive", "linear"))
    once = DecodeStats()
    decode_stream(payload, "log2", once)
    twice = DecodeStats()
    decode_stream(payload, "log2", twice)
    decode_stream(payload, "log2", twice)
    assert twice == DecodeStats(
        **{f.name: getattr(once, f.name) + getattr(once, f.name)
           for f in fields(DecodeStats)})


def test_failed_decode_leaves_stats_untouched():
    payload = encode_stream([0, 1, 2] * 20, 3, CoderConfig("adaptive", "linear"))
    stats = DecodeStats()
    decode_stream(payload, "log", stats)
    with pytest.raises(StreamFormatError):
        decode_stream(payload + b"\x00", "log", stats)
    once = DecodeStats()
    decode_stream(payload, "log", once)
    assert stats == once


@pytest.mark.parametrize("mode,model,rescale", [
    ("static", "linear", "orig"), ("adaptive", "linear", "orig"),
    ("static", "fenwick", "orig"), ("adaptive", "fenwick", "orig"),
    ("adaptive", "fenwick", "new")])
def test_count_stream_matches_one_decode_per_strategy(mode, model, rescale):
    """Every compatible strategy counted off one decode gets what its own
    counting decode gives it."""
    rng = random.Random(17)
    data = [rng.choices(range(13), weights=range(13, 0, -1))[0]
            for _ in range(1500)]
    cfg = CoderConfig(mode, model, rescale, 100 if mode == "adaptive" else 0)
    payload = encode_stream(data, 13, cfg)
    counted = {s: DecodeStats() for s in STRATEGIES
               if strategy_compatible(s, model, mode) is None}
    header, out = count_stream(payload, counted)
    assert out == data and header.n == len(data)
    for strategy, stats in counted.items():
        alone = DecodeStats()
        decode_stream(payload, strategy, alone)
        assert stats == alone, strategy
    # nothing to count: a plain decode
    assert count_stream(payload, {})[1] == data


def test_count_stream_checks_every_strategy_before_decoding():
    payload = encode_stream([0, 1, 2] * 20, 3, CoderConfig("adaptive", "linear"))
    for bad in ("bi", "tree", "nope"):
        counted = {"log": DecodeStats(), bad: DecodeStats(), "exp": DecodeStats()}
        with pytest.raises(ValueError):
            count_stream(payload, counted)
        assert all(stats == DecodeStats() for stats in counted.values())


def test_count_stream_that_raises_adds_nothing():
    payload = encode_stream([0, 1, 2] * 20, 3, CoderConfig("adaptive", "linear"))
    for bad in (payload[:-1], payload + b"\0"):
        counted = {"log": DecodeStats(), "lin-fwd": DecodeStats()}
        with pytest.raises(StreamFormatError):
            count_stream(bad, counted)
        assert all(stats == DecodeStats() for stats in counted.values())


@pytest.mark.parametrize("model", ("linear", "fenwick"))
def test_count_stream_counts_into_every_stats_it_is_given(model):
    """The default strategy named as None and by name counts into both
    stats, and each gets what a decode with that strategy alone gives."""
    payload = encode_stream([0, 1, 2, 1] * 30, 3, CoderConfig("adaptive", model))
    default = default_strategy(model)
    counted = {None: DecodeStats(), default: DecodeStats()}
    count_stream(payload, counted)
    alone = DecodeStats()
    decode_stream(payload, default, alone)
    assert alone.symbols == 120
    assert counted[None] == counted[default] == alone


def test_count_stream_rejects_a_negative_symbol_limit():
    """A negative limit is a bad argument, not a bad stream: it raises a
    plain ValueError before the header is read, even for an empty stream."""
    for payload in (encode_stream([], 3, CoderConfig()), b"junk"):
        with pytest.raises(ValueError, match="symbol limit") as raised:
            count_stream(payload, {"log": DecodeStats()}, max_symbols=-1)
        assert not isinstance(raised.value, StreamFormatError)
    assert decode_stream(encode_stream([], 3, CoderConfig()),
                         max_symbols=0)[1] == []


@pytest.mark.parametrize("model,rescale", [
    ("linear", "orig"), ("fenwick", "orig"), ("fenwick", "new")])
@pytest.mark.parametrize("k", (1, 7, 64, 100))
def test_rescale_accesses_are_rescale_events_times_one_rescale(model, rescale, k):
    """A decode's rescale accesses are its rescale events times what one
    rescale of the model tallies, at the interval and at the count cap."""
    rng = random.Random(k)
    data = [rng.randrange(k) for _ in range(600)]
    one = FenwickModel.flat(k, rescale) if model == "fenwick" else LinearModel.flat(k)
    one.rescale()
    stats = DecodeStats()
    with count_cap(k + 5):
        payload = encode_stream(data, k, CoderConfig("adaptive", model, rescale, 50))
        decode_stream(payload, stats=stats)
    assert stats.rescale_events > 600 // 50
    assert stats.rescale_accesses == stats.rescale_events * one.rescale_accesses


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 16), st.data())
def test_round_trip_property(k, data):
    syms = data.draw(st.lists(st.integers(0, k - 1), max_size=300))
    mode = data.draw(st.sampled_from(("static", "adaptive")))
    model = data.draw(st.sampled_from(("linear", "fenwick")))
    cfg = CoderConfig(mode, model, "orig", 0)
    _, out = decode_stream(encode_stream(syms, k, cfg))
    assert out == syms


def reference_model(header, counts):
    adaptive = header.mode == "adaptive"
    if header.model == "fenwick":
        return FenwickModel(counts, adaptive=adaptive,
                            rescale_variant=header.rescale)
    return LinearModel(counts, adaptive=adaptive)


def reference_encode(symbols, k, cfg):
    """encode_stream written with the step-by-step Encoder."""
    adaptive = cfg.mode == "adaptive"
    counts = None if adaptive else normalize_counts(
        [symbols.count(i) for i in range(k)])
    header = StreamHeader(cfg.mode, cfg.model, cfg.rescale,
                          cfg.rescale_interval if adaptive else 0, k,
                          len(symbols), None if adaptive else tuple(counts))
    enc = Encoder()
    if symbols:
        model = reference_model(header, counts or [1] * k)
        for pos, s in enumerate(symbols):
            enc.encode(model.cum(s), model.count(s), model.total_count)
            if adaptive:
                model.update(s)
                if cfg.rescale_interval and (pos + 1) % cfg.rescale_interval == 0:
                    model.rescale()
    return pack_header(header) + enc.finish()


def reference_decode(payload):
    """decode_stream written with the step-by-step Decoder and a scan."""
    header, offset = unpack_header(payload)
    out = []
    if not header.n:
        return out
    dec = Decoder(payload[offset:])
    model = reference_model(header, list(header.counts or [1] * header.k))
    for pos in range(header.n):
        c = dec.decode_target(model.total_count)
        sym = next(i for i in range(header.k) if c < model.cum(i + 1))
        dec.consume(model.cum(sym), model.count(sym))
        out.append(sym)
        if header.mode == "adaptive":
            model.update(sym)
            interval = header.rescale_interval
            if interval and (pos + 1) % interval == 0:
                model.rescale()
    assert dec.pos == len(dec.buf)
    return out


@settings(deadline=None, max_examples=120)
@given(st.integers(1, 40), st.sampled_from(("static", "adaptive")),
       st.sampled_from(("linear", "fenwick")), st.sampled_from(("orig", "new")),
       st.sampled_from((0, 1, 3, 16, 64)), st.data())
def test_stream_functions_match_reference_coder(k, mode, model, rescale,
                                              interval, data):
    """The stream functions, on whichever loop they run, against a
    reference written with Encoder/Decoder, the models' ``cum``/``count``
    and a linear scan, byte for byte.  An adaptive stream may run under a
    lowered count cap, which both loops then reach."""
    # a skewed draw drives long pending-0xFF runs and carries
    hot = data.draw(st.integers(0, k - 1))
    syms = data.draw(st.lists(
        st.one_of(st.just(hot), st.integers(0, k - 1)), max_size=400))
    headroom = data.draw(st.one_of(st.none(), st.integers(0, 60)))
    adaptive = mode == "adaptive"
    cfg = CoderConfig(mode, model, rescale, interval if adaptive else 0)
    with count_cap(k + headroom if adaptive and headroom is not None else None):
        payload = encode_stream(syms, k, cfg)
        assert payload == reference_encode(syms, k, cfg)
        assert reference_decode(payload) == syms
        strategy = data.draw(st.sampled_from(
            [s for s in STRATEGIES if strategy_compatible(s, model, mode) is None]))
        assert decode_stream(payload, strategy)[1] == syms


@pytest.mark.parametrize("mode,model", [
    (mode, model) for mode in ("static", "adaptive")
    for model in ("linear", "fenwick")])
def test_decode_clamps_code_value_past_total(mode, model):
    """A forged payload of 0xFF bytes makes the first code value equal
    the total; decode clamps it to the last symbol, as
    ``Decoder.decode_target`` does, instead of reading past the table."""
    counts = (1, 1, 1) if mode == "static" else None
    payload = pack_header(StreamHeader(mode, model, "orig", 0, 3, 1, counts))
    payload += b"\xff" * 5
    assert Decoder(payload[unpack_header(payload)[1]:]).decode_target(3) == 2
    assert decode_stream(payload)[1] == [2]


@pytest.mark.parametrize("mode,model,kind", [
    (mode, model, kind) for mode in ("static", "adaptive")
    for model in ("linear", "fenwick")
    for kind in ("truncate", "flip", "k", "count", "n")
    if kind != "count" or mode == "static"])
@settings(deadline=None, max_examples=30)
@given(st.data())
def test_mutated_streams_decode_or_raise_format_error(mode, model, kind, data):
    """A valid stream, truncated, with one byte flipped, or with a forged
    K, static count or symbol count, either decodes or raises
    StreamFormatError; no other exception escapes (an IndexError from a
    read past the model's arrays would).  The payload and the symbol
    limit bound the run time, also of a stream whose symbols cost no
    bits."""
    k = data.draw(st.one_of(st.integers(1, 20), st.just(300)))
    hot = data.draw(st.integers(0, k - 1))
    syms = data.draw(st.lists(
        st.one_of(st.just(hot), st.integers(0, k - 1)), max_size=200))
    interval = data.draw(st.sampled_from((0, 7))) if mode == "adaptive" else 0
    payload = encode_stream(syms, k, CoderConfig(mode, model, "orig", interval))
    bad = mutate(payload, kind, data)
    with time_limit(10):
        try:
            decode_stream(bad, max_symbols=1 << 16)
        except StreamFormatError:
            pass
