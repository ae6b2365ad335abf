"""A stream's per-call set-up: the count total a static header carries,
and the per-stream buffers the compiled loops are handed."""

import contextlib
from array import array
from unittest import mock

import pytest

from rangekit import rangecoder
from rangekit.linear_model import MAX_TOTALCOUNT
from rangekit.rangecoder import (CHUNK, CoderConfig, StreamFormatError,
                                 StreamHeader, decode_stream, encode_stream,
                                 pack_header, unpack_header)

from conftest import python_loops

ALPHABETS = (1, 3, 256, 65536)


def table(k: int, total: int) -> array:
    """K counts that sum to ``total``, spread as evenly as they go."""
    return array("I", (total // k + (i < total % k) for i in range(k)))


def counting_sums():
    """``_table_total`` patched to count its calls; it still sums."""
    return mock.patch.object(rangecoder, "_table_total",
                             wraps=rangecoder._table_total)


@pytest.mark.parametrize("k", ALPHABETS)
@pytest.mark.parametrize("total", (0, 1, MAX_TOTALCOUNT))
def test_unpacked_header_carries_its_table_total(k, total):
    """``unpack_header`` sums a static table once, to check its total,
    and later reads of ``total`` sum nothing more."""
    counts = table(k, total)
    packed = pack_header(StreamHeader("static", "linear", "orig", 0, k,
                                      1 if total else 0, counts))
    with counting_sums() as summed:
        header, offset = unpack_header(packed)
        assert summed.call_count == 1
        assert header.total == header.total == sum(counts) == total
    assert summed.call_count == 1
    assert offset == len(packed)


def test_hand_built_header_sums_its_table_on_first_read():
    """A header built by hand sums nothing when built, and its table once,
    on the first read of ``total``, which keeps that sum."""
    with counting_sums() as summed:
        header = StreamHeader("static", "linear", "orig", 0, 3, 5, (2, 0, 3))
        assert summed.call_count == 0
        header.counts[1] = 4  # before the first read: counted
        assert header.total == 9
        header.counts[1] = 0  # after it: the kept sum stays
        assert header.total == 9
    assert summed.call_count == 1


@pytest.mark.parametrize("loops", (contextlib.nullcontext, python_loops),
                         ids=("compiled", "python"))
def test_static_stream_sums_its_table_once_to_decode_and_never_to_encode(loops):
    """A static encode never sums its table, and a static decode sums it
    once, in ``unpack_header``, however many chunks it decodes in."""
    syms = [i % 5 for i in range(CHUNK + 1)]
    with loops(), counting_sums() as summed:
        payload = encode_stream(syms, 5, CoderConfig("static"))
        assert summed.call_count == 0
        assert decode_stream(payload)[1] == syms
    assert summed.call_count == 1


@pytest.mark.parametrize("model", ("linear", "fenwick"))
def test_adaptive_header_has_no_total(model):
    """An adaptive header, built by hand or unpacked, has no count table,
    and reading its ``total`` says so."""
    built = StreamHeader("adaptive", model, "orig", 0, 4, 1, None)
    unpacked, _ = unpack_header(pack_header(built))
    for header in (built, unpacked):
        with pytest.raises(ValueError, match="an adaptive header has no "
                           "count table"):
            header.total


@pytest.mark.parametrize("loops", (contextlib.nullcontext, python_loops),
                         ids=("compiled", "python"))
@pytest.mark.parametrize("counts, n", [((0, 0, 0), 9),
                                       ((1 << 20, 1, 0), 9),
                                       ((MAX_TOTALCOUNT, 1, 0), 0)])
def test_hostile_static_totals_keep_their_message(loops, counts, n):
    """A table whose total is zero under a nonempty stream, or above the
    cap, is rejected with its total, by ``unpack_header`` and by a
    decode on either loop."""
    packed = pack_header(StreamHeader("static", "linear", "orig", 0, 3, n,
                                      counts))
    want = f"invalid static count total {sum(counts)}"
    with pytest.raises(StreamFormatError, match=want):
        unpack_header(packed)
    with loops(), pytest.raises(StreamFormatError, match=want):
        decode_stream(packed + b"\0" * 5)


@pytest.mark.parametrize("loops", (contextlib.nullcontext, python_loops),
                         ids=("compiled", "python"))
@pytest.mark.parametrize("mode", ("static", "adaptive"))
@pytest.mark.parametrize("k, n", [(1, 0), (1, 1), (3, CHUNK + 1)])
def test_zero_buffers_stay_one_zero_entry(loops, mode, k, n):
    """Every per-stream buffer is a copy of a module-level zero entry;
    no loop is handed the entry itself, so coding streams, the empty
    one, a one-symbol one and one of more than one decode chunk, leaves
    each entry as it was."""
    syms = [i % k for i in range(n)]
    with loops():
        payload = encode_stream(syms, k, CoderConfig(mode))
        assert decode_stream(payload)[1] == syms
    assert rangecoder._ZERO_I == array("I", [0])
    assert rangecoder._ZERO_B == array("B", [0])

