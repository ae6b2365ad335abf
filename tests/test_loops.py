"""The compiled stream loops against the Python loops they mirror.

Each test runs a stream through the compiled loops, as the stream
functions pick them, and again with ``python_loops()``; the two sides must
give the same bytes, the same symbols and the same errors.
"""

import contextlib
import random
import re
import struct
import tracemalloc
from array import array
from collections import Counter
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rangekit import _loops, linear_model, rangecoder
from rangekit.bench import iteration_histogram
from rangekit.datagen import (MAX_ALPHABET, GenSpec, convert_symbols,
                              gen_sequence)
from rangekit.fenwick_model import FenwickModel
from rangekit.linear_model import LinearModel
from rangekit.rangecoder import (
    MASK32, STATIC_TOTAL_LIMIT, CoderConfig, DecodeStats, Encoder,
    StreamFormatError, StreamHeader,
    count_stream, decode_stream, encode_stream, normalize_counts, pack_header,
    unpack_header,
)
from rangekit.search import STRATEGIES, strategy_compatible

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


def same_symbols(syms):
    """``syms`` as each input type ``convert_symbols`` takes: a list, the
    equal tuple, a generator, a list of numpy integer scalars and a numpy
    int64 array, the last two where int64 holds every symbol."""
    inputs = [lambda: list(syms), lambda: tuple(syms), lambda: (s for s in syms)]
    if all(-1 << 63 <= s < 1 << 63 for s in syms):
        inputs += [lambda: [np.int64(s) for s in syms],
                   lambda: np.array(syms, dtype=np.int64)]
    return inputs


def converted(make, k=10):
    """What ``convert_symbols`` makes of ``make()``: its array, or the
    type and message of what it raised."""
    try:
        return convert_symbols(make(), k)[0]
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("mode,model", [
    (mode, model) for mode in MODES for model in MODELS])
def test_every_input_type_encodes_as_its_list(mode, model):
    """A tuple, range, generator, bytes, list of numpy integer scalars or
    numpy array converts to the ``array('I')`` of its list, and gives
    both loops the IRC1 bytes of its list."""
    cfg = CoderConfig(mode, model, "orig", 4 if mode == "adaptive" else 0)
    inputs = [lambda: tuple(SYMS), lambda: (s for s in SYMS),
              lambda: bytes(SYMS), lambda: range(10),
              lambda: [np.int64(s) for s in SYMS],
              lambda: [np.uint8(s) for s in SYMS]]
    inputs += [lambda dtype=dtype: np.array(SYMS, dtype=dtype)
               for dtype in (np.uint8, np.uint16, np.int32, np.int64)]
    for make in inputs:
        assert converted(make) == array("I", list(make()))
        want = encode_stream(list(make()), 10, cfg)
        assert both_sides(lambda: encode_stream(make(), 10, cfg)) == [want] * 2


@pytest.mark.parametrize("mode,model", [
    (mode, model) for mode in MODES for model in MODELS])
@pytest.mark.parametrize("bad", (-1, 10, 1 << 32, 1 << 64))
@pytest.mark.parametrize("at", (0, len(SYMS) // 2, len(SYMS) - 1))
def test_out_of_range_symbol_raises_the_same_error_on_both_loops(mode, model,
                                                                 bad, at):
    """A symbol below 0, at or above K, or at or above 2**32 raises the
    same ValueError on both loops, wherever it sits, from each input type
    (``same_symbols``); the conversion names one below 0 or at or above
    2**32 itself.  A second bad symbol after it does not
    change which one is named."""
    cfg = CoderConfig(mode, model)
    error = (ValueError, f"symbol {bad} outside alphabet of size 10")
    for later in ((), (-1,), (10,), (1 << 32,)):
        syms = SYMS[:at] + [bad, *later] + SYMS[at + 1:]
        for make in same_symbols(syms):
            if bad != 10:  # the conversion itself names it
                assert converted(make) == error
            assert both_sides(lambda: encode_stream(make(), 10, cfg),
                              ValueError) == [error] * 2


@pytest.mark.parametrize("mode,model", [
    (mode, model) for mode in MODES for model in MODELS])
def test_float_symbol_raises_type_error_on_both_loops(mode, model):
    """A float symbol raises the same TypeError from every input type,
    and on both loops; a numpy float scalar in a list raises one too."""
    cfg = CoderConfig(mode, model)
    for float_sym in (1.0, 2.5):
        syms = [0, float_sym, 3]
        inputs = (lambda: syms, lambda: tuple(syms), lambda: (s for s in syms),
                  lambda: np.array(syms))
        want = converted(inputs[0])
        assert want[0] is TypeError
        for make in inputs:
            assert converted(make) == want
            assert both_sides(lambda: encode_stream(make(), 10, cfg),
                              TypeError) == [want] * 2
        numpy_float = [0, np.float64(float_sym), 3]
        for loops in (contextlib.nullcontext, python_loops):
            with loops(), pytest.raises(TypeError):
                encode_stream(numpy_float, 10, cfg)


def symbol_inputs(syms, k):
    """``syms`` as a list, a generator and each numpy array that holds
    them all: uint8 and uint16 where K fits, int64 always."""
    inputs = [lambda: list(syms), lambda: (s for s in syms)]
    for dtype in (np.uint8, np.uint16, np.int64):
        info = np.iinfo(dtype)
        if info.min <= min(syms, default=0) and max(syms, default=0) <= info.max:
            inputs.append(lambda dtype=dtype: np.array(syms, dtype=dtype))
    return inputs


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", (1, 10, 256, MAX_ALPHABET))
def test_first_pass_checks_symbols_as_check_symbols_does(mode, k):
    """The compiled first pass takes K - 1 and names the first symbol at
    K, as ``check_symbols`` does for the Python loops, and a symbol below
    0 or at 2**32 fails the conversion both share: for a list, a
    generator, numpy uint8, uint16 and int64 arrays and the empty
    sequence, both loops give the same payload or ``ValueError`` text."""
    cfg = CoderConfig(mode, "linear", "orig", 3 if mode == "adaptive" else 0)
    good = [k - 1, 0, k // 2, k - 1]
    for syms in ([], good):
        want = encode_stream(syms, k, cfg)
        for make in symbol_inputs(syms, k):
            assert both_sides(lambda: encode_stream(make(), k, cfg)) == [want] * 2
    for bad in (k, -1, 1 << 32):
        syms = good + [bad, k - 1, k]
        want = (ValueError, f"symbol {bad} outside alphabet of size {k}")
        for make in symbol_inputs(syms, k):
            assert both_sides(lambda: encode_stream(make(), k, cfg),
                              ValueError) == [want] * 2


@pytest.mark.parametrize("k", (1, 256))
def test_first_pass_returns_the_first_symbol_at_or_above_k(k):
    """``first_pass`` returns the index of the first symbol at or above K
    (n if none) and, given a histogram, counts the symbols before it."""
    lib = _loops.lib()
    for syms, first in (([], 0), ([0] * 5, 5), ([k - 1, k, 0, k + 1], 1),
                        ([k, 0], 0), ([0, 0, (1 << 32) - 1], 2)):
        data = array("I", syms)
        hist = array("I", [0]) * k
        at = rangecoder._address
        assert lib.first_pass(at(data), len(data), k, None) == first
        assert lib.first_pass(at(data), len(data), k, at(hist)) == first
        tally = Counter(syms[:first])
        assert hist.tolist() == [tally[s] for s in range(k)]


@pytest.mark.parametrize("model", MODELS)
def test_static_histogram_is_scaled_only_above_the_limit(model):
    """A static stream of ``STATIC_TOTAL_LIMIT`` symbols takes its
    histogram as its table, without entering ``normalize_counts``; one of
    ``STATIC_TOTAL_LIMIT + 1`` symbols enters it once on either loop, and
    both loops give the same bytes."""
    cfg = CoderConfig("static", model)
    for n in (STATIC_TOTAL_LIMIT, STATIC_TOTAL_LIMIT + 1):
        syms = gen_sequence(GenSpec("geometric", 256, n, n)).tolist()
        totals = []

        def spy(counts):
            totals.append(sum(counts))
            return normalize_counts(counts)

        with mock.patch.object(rangecoder, "normalize_counts", spy):
            compiled, python = both_sides(lambda: encode_stream(syms, 256, cfg))
        assert compiled == python
        counts = unpack_header(compiled)[0].counts
        if n == STATIC_TOTAL_LIMIT:
            tally = Counter(syms)
            assert totals == [] and counts == array("I", (tally[s] for s in range(256)))
        else:
            assert totals == [n, n] and sum(counts) < n


def test_frame_slots_match_the_c_enum():
    """``_loops.FRAME`` names the slots of ``enum frame`` in ``_loops.c``,
    in its order, so that Python and C cannot lay the frame out apart."""
    source = re.sub(r"/\*.*?\*/", "", _loops._SOURCE.read_text(), flags=re.S)
    body = re.search(r"enum frame \{(.*?)\};", source, re.S).group(1)
    assert tuple(name.strip().lower() for name in body.split(",")) == _loops.FRAME


@pytest.mark.parametrize("mode", MODES)
def test_frame_holds_each_slot_by_name(mode):
    """``_compiled_loop`` writes each value into the slot of its name."""
    cfg = CoderConfig(mode, "fenwick", "new", 5 if mode == "adaptive" else 0)
    payload = encode_stream(SYMS, 10, cfg)
    header = unpack_header(payload)[0]
    out = array("I", [0]) * 4
    loop, frame = rangecoder._compiled_loop(_loops.lib(), "decode", header,
                                            out, 123, 45, 67)
    syms, counts, work = frame.buffers
    at = rangecoder._address
    static = mode == "static"
    assert syms is out and counts is (header.counts if static else None)
    assert len(frame) == 15
    assert dict(zip(_loops.FRAME, frame)) == {
        "rng": MASK32, "code": 67, "pos": 45, "sym": 0, "total": 0,
        "rescales": 0, "k": 10, "interval": header.rescale_interval,
        "cap": header.total if static else linear_model.MAX_TOTALCOUNT,
        "new_rescale": True, "len": 123, "limit": 0,
        "syms": at(out), "h": at(counts) if static else 0, "work": at(work)}


@pytest.mark.parametrize("kind", ("encode", "decode"))
@pytest.mark.parametrize("k", (1, 2, 3, 64, 65535, 65536))
def test_adaptive_first_call_starts_from_k_counts_of_one(kind, k):
    """An adaptive stream's first call, of 0 symbols, writes
    ``FenwickModel([1] * k).v`` to the first K + 1 entries of the work
    buffer in closed form, the lowest set bit of each index, from K
    alone: the frame has no counts.  The buffer has ``1 << K.bit_length()``
    entries, room for the decode's lookahead, and the rest stay zero."""
    header = StreamHeader("adaptive", "fenwick", "orig", 0, k, 0, None)
    loop, frame = rangecoder._compiled_loop(_loops.lib(), kind, header,
                                            array("I"), 5)
    assert frame.buffers[1] is None
    out = array("B", [0]) * 5
    got = loop(rangecoder._address(out) if kind == "encode" else b"",
               rangecoder._address(frame))
    assert got == (5 if kind == "encode" else 0)
    work = frame.buffers[2].tolist()
    assert len(work) == 1 << k.bit_length()
    assert work[:k + 1] == FenwickModel([1] * k).v
    assert not any(work[k + 1:])


def frames_of(fn):
    """``fn()`` and the frames of the compiled loops it ran."""
    frames, compiled_loop = [], rangecoder._compiled_loop

    def spy(*args):
        loop, frame = compiled_loop(*args)
        frames.append(frame)
        return loop, frame

    with mock.patch.object(rangecoder, "_compiled_loop", spy):
        return fn(), frames


RESUMED = [_loops.FRAME.index(name) for name in
           ("rng", "code", "pos", "sym", "total", "rescales")]


@pytest.mark.parametrize("model,rescale", [
    ("fenwick", "orig"), ("fenwick", "new"), ("linear", "orig")])
@pytest.mark.parametrize("k,cap", [
    *((k, None) for k in (1, 2, 3, 5, 9, 64, 200, 65535, 65536)), (200, 202)])
def test_adaptive_decode_lookahead_stays_in_its_padded_array(k, cap, model,
                                                             rescale):
    """``adaptive_decode`` loads both of the next level's probes before
    each choice, up to index ``2 * top - 1``, from the work array padded
    to ``1 << K.bit_length()`` entries.  Decoded in three resumed calls,
    on flat and geometric data, rescaling every 0 or 37 symbols, and
    under a count cap lowered to K + 2, where most updates rescale first,
    a stream gives its symbols, the resumable slots of a one-call decode,
    the encode's ``v`` and ``FenwickModel``'s in the first K + 1 entries,
    and zeros past them: the padding is never written.  At K = 5, 9 and
    200 the descent skips probes above K mid-descent."""
    n = 300
    for dist in ("flat", "geometric"):
        syms = gen_sequence(GenSpec(dist, k, n, k)).tolist()
        for interval in (0, 37):
            cfg = CoderConfig("adaptive", model, rescale, interval)
            ref = FenwickModel([1] * k, rescale_variant=rescale)
            with count_cap(cap):
                payload, (encoded,) = frames_of(
                    lambda: encode_stream(syms, k, cfg))
                whole, (one,) = frames_of(lambda: decode_stream(payload)[1])
                with mock.patch.object(rangecoder, "CHUNK", n // 3):
                    out, (resumed,) = frames_of(
                        lambda: decode_stream(payload)[1])
                for i, s in enumerate(syms):
                    ref.update(s)
                    if interval and (i + 1) % interval == 0:
                        ref.rescale()
            assert out == whole == syms
            assert [resumed[j] for j in RESUMED] == [one[j] for j in RESUMED]
            work = resumed.buffers[2].tolist()
            assert len(work) == 1 << k.bit_length()
            assert work[:k + 1] == encoded.buffers[2].tolist()[:k + 1] == ref.v
            assert not any(work[k + 1:])


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
    bits, on encode and on decode, before the decode sizes a symbol table
    from the total, so without allocating one."""
    lib = _loops.lib()
    want = overflow((1 << 32) + 1, linear_model.MAX_TOTALCOUNT)[1]
    for k in (3, 8):
        header = StreamHeader("static", model, "orig", 0, k, 1,
                              (1 << 31, 1 << 31, 1) + (0,) * (k - 3))
        payload = pack_header(header) + b"\0" * 5
        tracemalloc.start()
        try:
            with pytest.raises(OverflowError) as encoded:
                rangecoder._encode_compiled(lib, array("I", [2]), header)
            with pytest.raises(OverflowError) as decoded:
                rangecoder._decode_compiled(lib, payload, len(payload) - 5,
                                            header)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(encoded.value) == str(decoded.value) == want
        assert peak < 1 << 20


def test_symbol_table_is_never_written_past_its_size():
    """``_compiled_loop`` sizes the symbol table from ``StreamHeader.total``
    and makes it the table decode's cap, so counts raised after the
    total was read make the first call return -2 before it writes the
    table, and the decode raises; the sanitized build of the loops checks
    that nothing is written out of bounds."""
    k = 8
    payload = encode_stream(list(range(k)) * 10, k, CoderConfig("static"))
    header, offset = unpack_header(payload)  # reads header.total
    header.counts[0] += 1000
    with pytest.raises(StreamFormatError, match="count total 1080 exceeds "
                       "the total 80 that sized the symbol table"):
        rangecoder._decode_compiled(_loops.lib(), payload, offset, header)


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

    def keep(header):
        handed.append(header.counts)
        return pack_header(header)

    with mock.patch.object(rangecoder, "pack_header", keep):
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


@pytest.mark.parametrize("model", MODELS)
def test_largest_symbol_fills_the_top_of_the_symbol_table(model):
    """A K = 65536 static stream whose last symbol, 65535, has a nonzero
    count, so the symbol table's top entries hold the largest uint16,
    codes and decodes alike on both loops."""
    k = MAX_ALPHABET
    rng = random.Random(k - 1)
    syms = [k - 1] * 300 + [0] + [rng.randrange(k) for _ in range(3000)]
    rng.shuffle(syms)
    cfg = CoderConfig("static", model)
    payload = encode_stream(syms, k, cfg)
    assert unpack_header(payload)[0].counts[k - 1] >= 300
    assert both_sides(lambda: encode_stream(syms, k, cfg)) == [payload] * 2
    assert both_sides(lambda: decode_stream(payload)[1]) == [syms] * 2


#: Static count totals at the edges of the static loops' reciprocal: 1,
#: whose multiplier 2**64 takes 65 bits, the smallest others, both sides
#: of 2**16 (``STATIC_TOTAL_LIMIT``), the largest total the encoder's
#: normalised table reaches at K = 64, and the count cap.  The encoder
#: reaches the first five as the histogram of that many symbols.
RECIPROCAL_K = 64
RECIPROCAL_TOTALS = (1, 2, 3, (1 << 16) - 1, 1 << 16, (1 << 16) + 1,
                     STATIC_TOTAL_LIMIT + RECIPROCAL_K - 1,
                     linear_model.MAX_TOTALCOUNT)


def reciprocal_quotient(rng, total):
    """``rng // total`` as ``recip`` and ``quot`` in ``_loops.c`` compute
    it, in 64-bit unsigned arithmetic: the high 64 bits of
    ``ceil(2**64 / total) * rng``, from the multiplier's 32-bit halves."""
    m64 = (1 << 64) - 1
    if total <= 1:  # 2**64 for total 1 takes 65 bits
        hi, lo = total << 32, 0
    else:
        inv = (m64 // total + 1) & m64
        hi, lo = inv >> 32, inv & MASK32
    high, low = (hi * rng) & m64, ((lo * rng) & m64) >> 32
    return (((high + low) & m64) >> 32) & MASK32


def test_reciprocal_quotient_is_floor_division():
    """The static loops' quotient equals ``rng // total`` for every total
    of ``RECIPROCAL_TOTALS`` and a few more, at the smallest range before
    a symbol, 2**24, the largest, 2**32 - 1, and at multiples of the
    total and one either side of them, where a rounding error would show."""
    rng = random.Random(30)
    totals = {*RECIPROCAL_TOTALS, 5, 7, 255, (1 << 20) - 1, (1 << 20) + 1,
              *(rng.randrange(2, 1 << 20) for _ in range(50))}
    for total in sorted(totals):
        first = -(-(1 << 24) // total) * total
        last = MASK32 // total * total
        multiples = {first, last, *(rng.randrange(first, last + 1, total)
                                    for _ in range(20))}
        ranges = {1 << 24, MASK32} | {m + d for m in multiples for d in (-1, 0, 1)}
        for r in sorted(x for x in ranges if 1 << 24 <= x <= MASK32):
            assert reciprocal_quotient(r, total) == r // total, (r, total)


def reciprocal_stream(total, model):
    """A static header whose count total is ``total``, over K =
    ``RECIPROCAL_K``, and symbols drawn from it: the encoder's own
    histogram of ``total`` symbols where it keeps one unscaled, else a
    forged table, spread evenly, with 300 symbols."""
    k = RECIPROCAL_K
    if total <= STATIC_TOTAL_LIMIT:
        syms = gen_sequence(GenSpec("geometric", k, total, total)).tolist()
        header = unpack_header(encode_stream(syms, k, CoderConfig("static", model)))[0]
    else:
        counts = [total // k + (s < total % k) for s in range(k)]
        rng = random.Random(total)
        syms = rng.choices(range(k), counts, k=300)
        header = StreamHeader("static", model, "orig", 0, k, len(syms), counts)
    assert header.total == total
    return header, syms


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("total", RECIPROCAL_TOTALS)
def test_static_totals_at_the_reciprocal_edges_code_alike(total, model):
    """A static stream whose count total is one of ``RECIPROCAL_TOTALS``
    gives the same IRC1 bytes from the compiled encode, which multiplies
    by the total's reciprocal, and the Python one, which divides, the
    bytes ``encode_stream`` makes where the encoder reaches that total;
    its payload decodes to the same symbols on both loops, and the same
    payload cut short, or claiming one symbol more, gives both loops the
    same symbols or ``StreamFormatError``."""
    header, syms = reciprocal_stream(total, model)
    data = array("I", syms)
    coded = bytes(rangecoder._encode_compiled(_loops.lib(), data, header))
    assert coded == rangecoder._encode_python(data, header,
                                              rangecoder._make_model(header))
    payload = pack_header(header) + coded
    if total <= STATIC_TOTAL_LIMIT:
        cfg = CoderConfig("static", model)
        assert both_sides(lambda: encode_stream(syms, RECIPROCAL_K, cfg)) == [payload] * 2
    assert both_sides(lambda: decode_stream(payload)[1]) == [syms] * 2
    longer = bytearray(payload)
    struct.pack_into("<Q", longer, N_AT, len(syms) + 1)
    for forged in (payload[:len(payload) - len(coded) // 2], bytes(longer)):
        compiled, python = both_sides(lambda: decode_stream(forged)[1])
        assert compiled == python


def check_compiled_loop(mode, model, rescale, k):
    """A K-symbol stream encodes in ``{mode}_encode`` and decodes in
    ``{mode}_decode``, told to rescale by ``new`` only when it is a
    Fenwick ``new`` stream, and gives the Python loop's bytes and
    symbols, on flat and geometric data, with ``CHUNK`` lowered to 5
    too, so a static table that the first call writes serves the later
    calls."""
    cfg = CoderConfig(mode, model, rescale, 100)
    new = (model, rescale) == ("fenwick", "new")
    header = unpack_header(encode_stream([0], k, cfg))[0]
    for kind in ("encode", "decode"):
        loop, frame = rangecoder._compiled_loop(_loops.lib(), kind, header,
                                                array("I"), 0)
        assert loop.__name__ == f"{mode}_{kind}"
        assert frame[_loops.FRAME.index("new_rescale")] == new
    for dist in ("flat", "geometric"):
        for n, chunk in ((3000, rangecoder.CHUNK), (16, 5)):
            syms = gen_sequence(GenSpec(dist, k, n, k)).tolist()
            with mock.patch.object(rangecoder, "CHUNK", chunk):
                check_round_trip(syms, k, cfg)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model,rescale", [
    (model, rescale) for model in MODELS for rescale in RESCALES])
def test_compiled_loop_follows_the_mode_alone(mode, model, rescale):
    """Every stream runs its mode's loops at every K, small or large,
    whatever its model and rescale bytes (``check_compiled_loop``)."""
    for k in (1, 2, 7, 8, 63, 64, 256):
        check_compiled_loop(mode, model, rescale, k)


@pytest.mark.parametrize("interval", (0, 7))
@pytest.mark.parametrize("k", (3, 63, 64, 256))
def test_adaptive_linear_stream_with_rescale_byte_new_halves(k, interval):
    """A linear header's rescale byte changes nothing: with the byte set
    to ``new``, the compiled loops, which decode it in the Fenwick loop,
    give the Python reference's bytes, symbols and rescale count, under a
    count cap lowered to K + 2, where most updates rescale first; its
    coded bytes are those of the ``orig`` stream."""
    rng = random.Random(k)
    syms = [rng.randrange(k) if rng.random() < 0.5 else 0 for _ in range(600)]

    def decoded(payload):
        stats = DecodeStats()
        return decode_stream(payload, None, stats)[1], stats.rescale_events

    with count_cap(k + 2):
        orig, new = (encode_stream(syms, k, CoderConfig(
            "adaptive", "linear", rescale, interval)) for rescale in RESCALES)
        assert both_sides(lambda: encode_stream(syms, k, CoderConfig(
            "adaptive", "linear", "new", interval))) == [new] * 2
        compiled, python = both_sides(lambda: decoded(new))
    offset = unpack_header(new)[1]
    assert new[offset:] == orig[offset:]
    assert compiled == python and compiled[0] == syms and compiled[1] > 0


EDGE_KS = (1, 2, 3, 5, 63, 64, 65, 255, 256, 257)


def zero_runs(k, where):
    """The symbols of the zero-count runs of a K-symbol table: a run of
    about K / 3 at the start, in the middle or at the end, or one at
    each; at least one symbol stays nonzero."""
    z = k // 3 if k > 2 else k - 1
    starts = {"start": (0,), "middle": ((k - z) // 2,), "end": (k - z,),
              "all": (0, (k - z) // 2, k - z)}[where]
    length = -(-z // len(starts))
    zeros = {s for start in starts for s in range(start, start + length)}
    return zeros if len(zeros) < k else zeros - {k - 1}


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("where", ("start", "middle", "end", "all"))
@pytest.mark.parametrize("k", EDGE_KS)
def test_static_tables_with_zero_count_runs_code_alike(model, where, k):
    """A static table with runs of zero counts codes every nonzero symbol
    to the same bytes and decodes it to the same symbols on both loops.
    The first and the last nonzero symbol have count one, so decoding
    them reads the code values 0 and hk[K] - 1, the ends of the search."""
    zeros = zero_runs(k, where)
    nonzero = [s for s in range(k) if s not in zeros]
    rng = random.Random(k)
    counts = [0 if s in zeros else rng.randint(1, 5) for s in range(k)]
    counts[nonzero[0]] = counts[nonzero[-1]] = 1
    syms = [s for s in nonzero for _ in range(counts[s])]
    rng.shuffle(syms)
    cfg = CoderConfig("static", model)
    payload = encode_stream(syms, k, cfg)
    assert unpack_header(payload)[0].counts == array("I", counts)
    assert both_sides(lambda: encode_stream(syms, k, cfg)) == [payload] * 2
    assert both_sides(lambda: decode_stream(payload)[1]) == [syms] * 2


@pytest.mark.parametrize("cap", (None, 2))
@pytest.mark.parametrize("k", (*range(1, 18), 31, 32, 33))
def test_adaptive_linear_streams_code_every_symbol_alike(k, cap):
    """An adaptive linear stream that codes every symbol, K - 1 (whose
    update has an empty tail) and 0 (whose tail is all of hk) included,
    gives the same bytes and symbols on both loops, with the count cap
    as it is and lowered to just above K, where nearly every update
    rescales first."""
    rng = random.Random(k)
    syms = [*range(k), *range(k - 1, -1, -1), k - 1, k - 1, 0, 0,
            *(rng.randrange(k) for _ in range(40 * k))]
    for interval in (0, 7):
        cfg = CoderConfig("adaptive", "linear", "orig", interval)
        check_round_trip(syms, k, cfg, None if cap is None else k + cap)


RUNNABLE = [("static", "linear", "orig"), ("static", "fenwick", "orig"),
            ("adaptive", "linear", "orig"), ("adaptive", "fenwick", "orig"),
            ("adaptive", "fenwick", "new")]


def count_all(payload, model, mode):
    """The symbols and every compatible strategy's ``DecodeStats`` off
    one ``count_stream`` decode of ``payload``."""
    counted = {strategy: DecodeStats() for strategy in STRATEGIES
               if strategy_compatible(strategy, model, mode) is None}
    return count_stream(payload, counted)[1], counted


@pytest.mark.parametrize("mode,model,rescale", RUNNABLE)
@pytest.mark.parametrize("k", (1, 2, 3, 64, 65, 256))
def test_counting_decodes_give_the_same_stats_on_both_loops(mode, model,
                                                            rescale, k):
    """Every runnable strategy gets the same ``DecodeStats``, every field,
    from a counting decode on either loop; an adaptive stream rescales
    every 0, 1 or 7 symbols, under the count cap as it is and lowered to
    K + 2, where most updates rescale first."""
    rng = random.Random(k)
    hot = rng.randrange(k)
    syms = [hot if rng.random() < 0.5 else rng.randrange(k) for _ in range(400)]
    adaptive = mode == "adaptive"
    for interval in (0, 1, 7) if adaptive else (0,):
        for cap in (None, k + 2) if adaptive else (None,):
            cfg = CoderConfig(mode, model, rescale, interval)
            with count_cap(cap):
                payload = encode_stream(syms, k, cfg)
                compiled, python = both_sides(
                    lambda: count_all(payload, model, mode))
            assert compiled == python and compiled[0] == syms
            rescaled = [s.rescale_events > 0 for s in compiled[1].values()]
            assert all(rescaled) == bool(interval or cap)


@pytest.mark.parametrize("mode,model,rescale", RUNNABLE)
def test_counting_decode_never_runs_the_python_loop(mode, model, rescale):
    """While the compiled loops are loaded, a decode that counts every
    strategy runs them and never enters ``_decode_python``."""
    cfg = CoderConfig(mode, model, rescale, 7 if mode == "adaptive" else 0)
    payload = encode_stream(SYMS * 20, 10, cfg)
    with mock.patch.object(rangecoder, "_decode_python",
                           side_effect=AssertionError("the Python loop ran")):
        out, counted = count_all(payload, model, mode)
    assert out == SYMS * 20
    assert all(stats.symbols == len(out) for stats in counted.values())


@pytest.mark.parametrize("mode,model", [
    (mode, model) for mode in MODES for model in MODELS])
def test_counting_builds_no_model(mode, model):
    """A decode that counts every compatible strategy on the compiled
    loop counts from the header's boundaries and the symbols, and so does
    ``iteration_histogram``: no ``LinearModel`` or ``FenwickModel`` is
    built."""
    cfg = CoderConfig(mode, model, "orig", 7 if mode == "adaptive" else 0)
    payload = encode_stream(SYMS * 20, 10, cfg)
    built = AssertionError("a model was built")
    with mock.patch.object(rangecoder, "_make_model", side_effect=built), \
            mock.patch.object(LinearModel, "__init__", side_effect=built), \
            mock.patch.object(FenwickModel, "__init__", side_effect=built):
        out, counted = count_all(payload, model, mode)
        averages = {strategy: iteration_histogram(strategy, out, 10).average
                    for strategy in counted
                    if (mode, model) == ("static", "linear")}
    assert out == SYMS * 20
    assert all(stats.symbols == len(out) for stats in counted.values())
    # 180 symbols: the header keeps their counts unscaled
    for strategy, average in averages.items():
        assert average == counted[strategy].search_iterations / len(out)


def test_counting_every_strategy_at_large_k_is_fast():
    """One counting decode of every strategy finishes within 5 s on a
    K = 65536 static stream and on an adaptive linear K = 4096 stream,
    where running the linear scans once per distinct symbol took about
    20 s; the scans' totals are the sums of ``sym + 1`` and ``K - sym``."""
    streams = []
    for mode, k in (("static", 1 << 16), ("adaptive", 1 << 12)):
        syms = gen_sequence(GenSpec("flat", k, 8192, k)).tolist()
        streams.append((k, syms, encode_stream(syms, k, CoderConfig(mode)), mode))
    with time_limit(5):
        counted = [count_all(payload, "linear", mode)[1]
                   for _, _, payload, mode in streams]
    for (k, syms, _, mode), stats in zip(streams, counted):
        assert len(stats) == (7 if mode == "static" else 6)
        assert stats["lin-fwd"].search_iterations == sum(syms) + len(syms)
        assert stats["lin-bwd"].search_iterations == k * len(syms) - sum(syms)
        assert stats["table"].search_iterations == len(syms)


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


@pytest.mark.parametrize("mode,model,rescale", RUNNABLE)
def test_encode_calls_its_loop_once(mode, model, rescale):
    """With ``CHUNK`` lowered to 5, a stream of 3 CHUNK + 1 symbols is
    coded by one call of the compiled encode loop, which gives the Python
    loop's bytes: only a decode is chunked."""
    calls = []
    compiled_loop = rangecoder._compiled_loop

    def spy(*args):
        loop, frame = compiled_loop(*args)
        return lambda *call: calls.append(call) or loop(*call), frame

    syms = [i * 5 % 7 for i in range(16)]
    cfg = CoderConfig(mode, model, rescale, 3 if mode == "adaptive" else 0)
    with mock.patch.object(rangecoder, "CHUNK", 5), \
            mock.patch.object(rangecoder, "_compiled_loop", spy):
        payload = encode_stream(syms, 7, cfg)
    with python_loops():
        assert encode_stream(syms, 7, cfg) == payload
    assert len(calls) == 1


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
    """A build is cached under a name keyed by the source and the compile
    flags, written without a partial file, and reused; other flags give
    another build, which removes the earlier one; a source that does not
    compile gives None, which leaves the stream functions on their Python
    loops and the last build in place."""
    source = tmp_path / "_loops.c"
    source.write_bytes(_loops._SOURCE.read_bytes())
    assert _loops._load(source) is not None
    built = list((tmp_path / "__pycache__").iterdir())
    assert len(built) == 1 and built[0].name.startswith("_loops-")
    assert built[0].suffix == ".so"
    mtime = built[0].stat().st_mtime_ns
    assert _loops._load(source) is not None
    assert built[0].stat().st_mtime_ns == mtime

    with mock.patch.object(_loops, "CFLAGS", ("-O1", "-shared", "-fPIC")):
        assert _loops._load(source) is not None
    rebuilt = list((tmp_path / "__pycache__").iterdir())
    assert len(rebuilt) == 1 and rebuilt[0] != built[0]
    assert rebuilt[0].name.startswith("_loops-") and rebuilt[0].suffix == ".so"
    assert not built[0].exists()

    source.write_text("this is not C\n")
    assert _loops._load(source) is None
    assert list((tmp_path / "__pycache__").iterdir()) == rebuilt
    assert _loops._load(tmp_path / "missing.c") is None
