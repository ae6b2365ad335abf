"""The compiled stream loops against the Python loops they mirror.

Each test runs a stream through the compiled loops, as the stream
functions pick them, and again with ``python_loops()``; the two sides must
give the same bytes, the same symbols and the same errors.
"""

import contextlib
import random
import struct
import tracemalloc
from array import array
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rangekit import _loops, fenwick_model, linear_model, rangecoder
from rangekit.datagen import MAX_ALPHABET
from rangekit.rangecoder import (
    CoderConfig, Encoder, StreamFormatError, StreamHeader, decode_stream,
    encode_stream, normalize_counts, pack_header, unpack_header,
)

from conftest import N_AT, count_cap, mutate, python_loops, time_limit

MODES = ("static", "adaptive")
MODELS = ("linear", "fenwick")
RESCALES = ("orig", "new")
INTERVALS = (0, 1, 7, 500)


@pytest.fixture(autouse=True)
def compiled():
    """Skip where no compiler built the loops: both sides would then run
    the Python loops.  The CI workflow fails if the loops do not load."""
    if _loops.lib() is None:
        pytest.skip("the compiled stream loops did not load")


def both_sides(fn, errors=(StreamFormatError, OverflowError)):
    """``fn()`` through the compiled loops and through the Python loops:
    each side's result, or the type and message of what it raised."""
    out = []
    for loops in (contextlib.nullcontext, python_loops):
        try:
            with loops():
                out.append(fn())
        except errors as exc:
            out.append((type(exc), str(exc)))
    return out


def check_round_trip(syms, k, cfg, cap=None):
    with count_cap(cap):
        payload = encode_stream(syms, k, cfg)
        with python_loops():
            assert encode_stream(syms, k, cfg) == payload
            assert decode_stream(payload)[1] == syms
        assert decode_stream(payload)[1] == syms


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 300), st.sampled_from(MODES), st.sampled_from(MODELS),
       st.sampled_from(RESCALES), st.sampled_from(INTERVALS), st.data())
def test_compiled_loops_match_python_loops(k, mode, model, rescale, interval,
                                           data):
    """Same IRC1 bytes and symbols from both loops, for every mode, model,
    rescale and interval; an adaptive stream may run under a count cap
    lowered to just above K, which both loops then reach."""
    # seeded draws: long streams, so that most capped streams reach the cap
    rng = random.Random(data.draw(st.integers(0, 1 << 32)))
    hot = rng.randrange(k)
    share = data.draw(st.sampled_from((0.0, 0.5, 0.95)))
    syms = [hot if rng.random() < share else rng.randrange(k)
            for _ in range(data.draw(st.integers(0, 600)))]
    adaptive = mode == "adaptive"
    headroom = data.draw(st.one_of(st.none(), st.integers(0, 100)))
    cfg = CoderConfig(mode, model, rescale, interval if adaptive else 0)
    check_round_trip(syms, k, cfg,
                     k + headroom if adaptive and headroom is not None else None)


@pytest.mark.parametrize("k", (4096, 65536))
@pytest.mark.parametrize("mode,model,rescale", [
    (mode, model, rescale) for mode in MODES for model in MODELS
    for rescale in RESCALES])
def test_compiled_loops_match_python_loops_at_large_k(k, mode, model, rescale):
    rng = random.Random(k)
    syms = [rng.randrange(k) if rng.random() < 0.5 else rng.randrange(8)
            for _ in range(300)]
    adaptive = mode == "adaptive"
    cfg = CoderConfig(mode, model, rescale, 100 if adaptive else 0)
    check_round_trip(syms, k, cfg, k + 150 if adaptive else None)


SYMS = [3, 1, 4, 1, 5, 9, 2, 6, 5]  # K = 10


@pytest.mark.parametrize("mode,model", [
    (mode, model) for mode in MODES for model in MODELS])
def test_every_input_type_encodes_as_its_list(mode, model):
    """A tuple, range, generator, bytes or numpy array gives both loops
    the IRC1 bytes of its list."""
    cfg = CoderConfig(mode, model, "orig", 4 if mode == "adaptive" else 0)
    inputs = [lambda: tuple(SYMS), lambda: (s for s in SYMS),
              lambda: bytes(SYMS), lambda: range(10)]
    inputs += [lambda dtype=dtype: np.array(SYMS, dtype=dtype)
               for dtype in (np.uint8, np.uint16, np.int32, np.int64)]
    for make in inputs:
        want = encode_stream(list(make()), 10, cfg)
        assert both_sides(lambda: encode_stream(make(), 10, cfg)) == [want] * 2


@pytest.mark.parametrize("mode,model", [
    (mode, model) for mode in MODES for model in MODELS])
@pytest.mark.parametrize("bad", (-1, 10, 1 << 32, 1 << 64))
@pytest.mark.parametrize("at", (0, len(SYMS) // 2, len(SYMS) - 1))
def test_out_of_range_symbol_raises_the_same_error_on_both_loops(mode, model,
                                                                 bad, at):
    """A symbol below 0, at or above K, or at or above 2**32 raises the
    same ValueError on both loops, wherever it sits, in a list or from a
    generator; a second bad symbol after it does not change which one is
    named."""
    cfg = CoderConfig(mode, model)
    want = [(ValueError, f"symbol {bad} outside alphabet of size 10")] * 2
    for later in ((), (-1,), (10,), (1 << 32,)):
        syms = SYMS[:at] + [bad, *later] + SYMS[at + 1:]
        for make in (lambda: syms, lambda: (s for s in syms)):
            assert both_sides(lambda: encode_stream(make(), 10, cfg),
                              ValueError) == want


@pytest.mark.parametrize("mode,model", [
    (mode, model) for mode in MODES for model in MODELS])
def test_float_symbol_raises_type_error_on_both_loops(mode, model):
    for float_sym in (1.0, 2.5):
        syms = [0, float_sym, 3]
        for loops in (contextlib.nullcontext, python_loops):
            with loops(), pytest.raises(TypeError):
                encode_stream(syms, 10, CoderConfig(mode, model))


def overflow(total, cap):
    """What both loops raise for a count total above the cap."""
    return (OverflowError, f"total count {total} exceeds MAX_TOTALCOUNT="
                           f"{cap}; caller must pre-normalize")


@pytest.mark.parametrize("model", MODELS)
def test_static_total_above_a_lowered_cap_raises_the_same_error(model):
    """A static table whose total exceeds the count cap raises the same
    OverflowError on both loops, on encode and on decode; a total at the
    cap codes."""
    syms = SYMS * 10
    total = len(syms)  # below STATIC_TOTAL_LIMIT: the table is the counts
    cfg = CoderConfig("static", model)
    payload = encode_stream(syms, 10, cfg)
    with count_cap(total):
        assert both_sides(lambda: encode_stream(syms, 10, cfg)) == [payload] * 2
        assert both_sides(lambda: decode_stream(payload)[1]) == [syms] * 2
    with count_cap(total - 1):
        want = [overflow(total, total - 1)] * 2
        assert both_sides(lambda: encode_stream(syms, 10, cfg)) == want
        assert both_sides(lambda: decode_stream(payload)) == want


@pytest.mark.parametrize("model", MODELS)
def test_table_whose_total_wraps_32_bits_raises_in_the_compiled_loops(model):
    """A hand-built table that ``unpack_header`` never sees, whose total
    2**32 + 1 wraps a 32-bit sum to 1, raises ``check_total``'s
    OverflowError from the loops' own first-call check, which sums in 64
    bits, on encode and on decode."""
    lib = _loops.lib()
    header = StreamHeader("static", model, "orig", 0, 3, 1,
                          (1 << 31, 1 << 31, 1))
    want = overflow((1 << 32) + 1, linear_model.MAX_TOTALCOUNT)[1]
    with pytest.raises(OverflowError) as raised:
        rangecoder._encode_compiled(lib, array("I", [2]), header)
    assert str(raised.value) == want
    payload = pack_header(header) + b"\0" * 5
    with pytest.raises(OverflowError) as raised:
        rangecoder._decode_compiled(lib, payload, len(payload) - 5, header)
    assert str(raised.value) == want


@pytest.mark.parametrize("model", MODELS)
def test_static_coding_leaves_the_header_table_unchanged(model):
    """Both loops code a static stream from ``header.counts`` and write
    it neither on encode nor on decode: the table handed to the encode
    and the decoded header's table still equal the table in the bytes."""
    rng = random.Random(9)
    syms = [rng.randrange(40) if rng.random() < 0.5 else 3 for _ in range(3000)]
    cfg = CoderConfig("static", model)
    payload = encode_stream(syms, 40, cfg)
    table = unpack_header(payload)[0].counts
    handed = []

    def keep(counts):
        handed.append(normalize_counts(counts))
        return handed[-1]

    with mock.patch.object(rangecoder, "normalize_counts", keep):
        assert both_sides(lambda: encode_stream(syms, 40, cfg)) == [payload] * 2
    assert handed == [table] * 2
    assert both_sides(lambda: decode_stream(payload)[0].counts) == [table] * 2


@pytest.mark.parametrize("model", MODELS)
def test_adaptive_alphabet_above_a_lowered_cap_raises_the_same_error(model):
    """An adaptive stream starts from K counts of one, so an alphabet
    larger than the count cap raises the same OverflowError on both
    loops, on encode and on decode."""
    cfg = CoderConfig("adaptive", model)
    payload = encode_stream(SYMS, 10, cfg)
    with count_cap(9):
        want = [overflow(10, 9)] * 2
        assert both_sides(lambda: encode_stream(SYMS, 10, cfg)) == want
        assert both_sides(lambda: decode_stream(payload)) == want


def test_fenwick_cap_below_the_alphabet_alone_codes_on_both_loops():
    """The first-call total check reads ``linear_model``'s cap, as
    ``prefix_sums`` does, not the cap a Fenwick model rescales at: with
    only ``fenwick_model.MAX_TOTALCOUNT`` lowered below K, both loops
    code the stream alike, rescaling at every update."""
    cfg = CoderConfig("adaptive", "fenwick", "new")
    with mock.patch.object(fenwick_model, "MAX_TOTALCOUNT", 5):
        payload = encode_stream(SYMS * 3, 10, cfg)
        assert both_sides(lambda: encode_stream(SYMS * 3, 10, cfg)) == [payload] * 2
        assert both_sides(lambda: decode_stream(payload)[1]) == [SYMS * 3] * 2


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("k", (1, 3, 256))
def test_all_zero_table_is_an_empty_stream(model, k):
    """An all-zero table decodes to no symbols on both loops when the
    header claims none, and raises the same StreamFormatError when it
    claims any."""
    cfg = CoderConfig("static", model)
    empty = encode_stream([], k, cfg)
    assert both_sides(lambda: encode_stream([], k, cfg)) == [empty] * 2
    assert unpack_header(empty)[0].counts == array("I", [0]) * k
    assert both_sides(lambda: decode_stream(empty)[1]) == [[]] * 2
    forged = bytearray(empty)
    struct.pack_into("<Q", forged, N_AT, 1)
    assert both_sides(lambda: decode_stream(bytes(forged))) == [
        (StreamFormatError, "invalid static count total 0")] * 2


def static_payload(model, counts, syms):
    """A static stream of ``syms`` under the table ``counts``, coded
    step by step on an ``Encoder``."""
    hk = list(accumulate(counts, initial=0))
    enc = Encoder()
    for s in syms:
        enc.encode(hk[s], counts[s], hk[-1])
    header = StreamHeader("static", model, "orig", 0, len(counts), len(syms),
                          tuple(counts))
    return pack_header(header) + enc.finish()


@pytest.mark.parametrize("model", MODELS)
def test_table_total_at_the_cap_at_the_largest_alphabet(model):
    """A K = 65536 table whose total is MAX_TOTALCOUNT, every other count
    zero, decodes to the same symbols on both loops, and raises the same
    OverflowError once the cap is one lower."""
    k, cap = MAX_ALPHABET, linear_model.MAX_TOTALCOUNT
    counts = (2 * cap // k, 0) * (k // 2)
    rng = random.Random(k)
    syms = [2 * rng.randrange(k // 2) for _ in range(300)]
    payload = static_payload(model, counts, syms)
    assert both_sides(lambda: decode_stream(payload)[1]) == [syms] * 2
    with count_cap(cap - 1):
        assert both_sides(lambda: decode_stream(payload)) == [
            overflow(cap, cap - 1)] * 2


def runs_out(payload, n):
    """Whether ``payload``, its header claiming ``n`` symbols, runs out of
    bytes before the last of them."""
    forged = bytearray(payload)
    struct.pack_into("<Q", forged, N_AT, n)
    try:
        with python_loops():
            decode_stream(bytes(forged))
    except StreamFormatError as exc:
        return str(exc) == "payload ends before the last symbol"
    return False


@pytest.mark.parametrize("mode,model,rescale", [
    ("static", "linear", "orig"), ("static", "fenwick", "orig"),
    ("adaptive", "linear", "orig"), ("adaptive", "fenwick", "orig"),
    ("adaptive", "fenwick", "new")])
def test_compiled_loops_match_python_loops_across_chunks(mode, model, rescale):
    """With ``CHUNK`` lowered to 5, streams of 0, CHUNK - 1, CHUNK,
    CHUNK + 1 and 3 CHUNK + 1 symbols code the same on both loops, and a
    payload that runs out inside the second chunk raises the same
    StreamFormatError on both."""
    chunk = 5
    rng = random.Random(chunk)
    adaptive = mode == "adaptive"
    cfg = CoderConfig(mode, model, rescale, 3 if adaptive else 0)
    with mock.patch.object(rangecoder, "CHUNK", chunk):
        for n in (0, chunk - 1, chunk, chunk + 1, 3 * chunk + 1):
            syms = [rng.randrange(7) for _ in range(n)]
            # under a cap just above K, adaptive streams rescale at the cap
            check_round_trip(syms, 7, cfg, 12 if adaptive else None)
        syms = [rng.randrange(256) for _ in range(3 * chunk + 1)]
        payload = encode_stream(syms, 256, cfg)
        cut = max(cut for cut in range(unpack_header(payload)[1], len(payload))
                  if runs_out(payload[:cut], 2 * chunk)
                  and not runs_out(payload[:cut], chunk))
        assert both_sides(lambda: decode_stream(payload[:cut])) == [
            (StreamFormatError, "payload ends before the last symbol")] * 2


@pytest.mark.parametrize("mode,model,kind", [
    (mode, model, kind) for mode in MODES for model in MODELS
    for kind in ("truncate", "flip", "k", "count", "n")
    if kind != "count" or mode == "static"])
@settings(deadline=None, max_examples=30)
@given(st.data())
def test_mutated_streams_give_the_same_result_on_both_loops(mode, model, kind,
                                                            data):
    """A truncated, flipped or forged stream gives the same symbols on
    both loops, or the same StreamFormatError; the symbol limit bounds a
    stream whose symbols cost no bits."""
    k = data.draw(st.one_of(st.integers(1, 20), st.just(300)))
    hot = data.draw(st.integers(0, k - 1))
    syms = data.draw(st.lists(
        st.one_of(st.just(hot), st.integers(0, k - 1)), max_size=200))
    interval = data.draw(st.sampled_from((0, 7))) if mode == "adaptive" else 0
    payload = encode_stream(syms, k, CoderConfig(mode, model, "orig", interval))
    bad = mutate(payload, kind, data)
    with time_limit(20):
        compiled, python = both_sides(
            lambda: decode_stream(bad, max_symbols=1 << 16))
    assert compiled == python


@pytest.mark.parametrize("mode,model", [
    (mode, model) for mode in MODES for model in MODELS])
def test_forged_symbol_count_is_bounded_by_the_payload(mode, model):
    """A valid stream whose header claims 2**40 symbols, under a symbol
    limit that allows them, raises once its payload runs out, quickly and
    without allocating for the claimed count: the compiled decode buffers
    one chunk at a time."""
    rng = random.Random(40)
    syms = [rng.randrange(256) for _ in range(3000)]
    payload = bytearray(encode_stream(syms, 256, CoderConfig(mode, model)))
    struct.pack_into("<Q", payload, N_AT, 1 << 40)
    tracemalloc.start()
    try:
        with time_limit(5):
            raised = both_sides(lambda: decode_stream(bytes(payload),
                                                      max_symbols=1 << 40))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert raised == [(StreamFormatError,
                       "payload ends before the last symbol")] * 2
    assert peak < 2 << 20


def test_signals_are_handled_between_chunks():
    """A forged count on a stream whose symbols cost no bits (static, K =
    1) never runs out of payload; under a symbol limit that allows the
    count, an alarm still ends the compiled decode."""
    payload = bytearray(encode_stream([0] * 10, 1, CoderConfig("static")))
    struct.pack_into("<Q", payload, N_AT, 1 << 40)
    with pytest.raises(TimeoutError), time_limit(0.02):
        decode_stream(bytes(payload), max_symbols=1 << 40)


def test_decode_takes_any_bytes_like_payload():
    syms = [3, 1, 4, 1, 5, 9, 2, 6] * 50
    payload = encode_stream(syms, 10, CoderConfig("adaptive", "fenwick"))
    for view in (bytearray(payload), memoryview(payload)):
        assert decode_stream(view)[1] == syms


def test_loader_builds_once_and_falls_back(tmp_path):
    """A build is cached under a name keyed by the source, written without
    a partial file, and reused; a source that does not compile gives
    None, which leaves the stream functions on their Python loops."""
    source = tmp_path / "_loops.c"
    source.write_bytes(_loops._SOURCE.read_bytes())
    assert _loops._load(source) is not None
    built = list((tmp_path / "__pycache__").iterdir())
    assert len(built) == 1 and built[0].name.startswith("_loops-")
    assert built[0].suffix == ".so"
    mtime = built[0].stat().st_mtime_ns
    assert _loops._load(source) is not None
    assert built[0].stat().st_mtime_ns == mtime

    source.write_text("this is not C\n")
    assert _loops._load(source) is None
    assert list((tmp_path / "__pycache__").iterdir()) == built
    assert _loops._load(tmp_path / "missing.c") is None
