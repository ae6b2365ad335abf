import random

import pytest
from hypothesis import given, settings, strategies as st

from rangekit.rangecoder import (
    MAGIC, MASK32, TOP, VERSION, CoderConfig, DecodeStats, Decoder, Encoder,
    StreamFormatError, StreamHeader, ZeroCountError, decode_stream,
    default_strategy, encode_stream, normalize_counts, pack_header,
    strategy_compatible, unpack_header, _HEADER_SIZE,
)
from rangekit.search import STRATEGIES


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
    # 2**40 announced symbols, 5 payload bytes: the decoder must give up
    # as soon as it needs a sixth byte instead of inventing zeros
    header = StreamHeader("adaptive", model, "orig", 0, 2, 1 << 40, None)
    stats = DecodeStats()
    with pytest.raises(StreamFormatError):
        decode_stream(pack_header(header) + b"\x00" * 5, stats=stats)
    assert stats.symbols < 1000  # bounded by the payload, not by n


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
    assert header.counts == (0, 0, 0)
    assert decode_stream(payload)[1] == []


def test_normalize_counts_small_passthrough():
    assert normalize_counts([3, 0, 5]) == [3, 0, 5]


def test_normalize_counts_scaling():
    counts = [1 << 18, 1, 0, 3]
    scaled = normalize_counts(counts)
    assert sum(scaled) <= 1 << 16
    assert scaled[1] == 1  # observed symbols keep an interval
    assert scaled[2] == 0


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


def test_encode_rejects_out_of_range_symbol():
    with pytest.raises(ValueError):
        encode_stream([0, 7], 7, CoderConfig())


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


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 16), st.data())
def test_round_trip_property(k, data):
    syms = data.draw(st.lists(st.integers(0, k - 1), max_size=300))
    mode = data.draw(st.sampled_from(("static", "adaptive")))
    model = data.draw(st.sampled_from(("linear", "fenwick")))
    cfg = CoderConfig(mode, model, "orig", 0)
    _, out = decode_stream(encode_stream(syms, k, cfg))
    assert out == syms
