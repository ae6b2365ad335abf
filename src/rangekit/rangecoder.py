"""Byte-oriented range coder plus static/adaptive stream drivers.

Register discipline: 32-bit range, renormalization in base 256 whenever
the range drops below 2^24, 64-bit low accumulator with a cache byte and
pending-0xFF counter for carry propagation, 5-byte flush.  Because model
totals are capped at 2^20 < 2^24, range/total never truncates to zero.

The stream self-describes via a fixed little-endian header; the search
strategy is deliberately NOT part of the header because it does not
affect the bitstream, only how fast the decoder finds each symbol.

``Encoder`` and ``Decoder`` are the step-by-step reference of the register
discipline.  The stream functions ``encode_stream``/``decode_stream`` run
the compiled loops of ``_loops.c`` when ``_loops`` has loaded them, and
otherwise their Python loops, the plain reference, which code one symbol
a step on an ``Encoder`` or a ``Decoder``.  A decode that counts always
runs the Python loop.  Both must stay bit-identical.
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import _loops
from . import fenwick_model as _fenwick
from . import linear_model as _linear
from .datagen import MAX_ALPHABET, check_symbols
from .fenwick_model import FenwickModel
from .linear_model import MAX_TOTALCOUNT, LinearModel
from . import search as _search
from .search import binary_indexed_interval, strategy_compatible

TOP = 1 << 24
MASK32 = 0xFFFFFFFF

MAGIC = b"IRC1"
VERSION = 1

#: Static-mode counts are scaled to a total below this limit plus K (see
#: ``normalize_counts``), within MAX_TOTALCOUNT.
STATIC_TOTAL_LIMIT = 1 << 16

_MODES = ("static", "adaptive")
_MODELS = ("linear", "fenwick")
_RESCALES = ("orig", "new")

#: Symbols per call of a compiled stream loop.  A decode buffers at most
#: this many before it appends them and calls again.
CHUNK = 1 << 16

#: A decode's default symbol limit: 8 bytes a symbol in the list, 128 MiB.
MAX_SYMBOLS = 1 << 24

_HEADER_FMT = "<4sBBBBIIQ"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)


class StreamFormatError(ValueError):
    """Malformed compressed stream (bad magic, truncation, unknown ids,
    trailing bytes)."""


class ZeroCountError(ValueError):
    """Attempt to encode a symbol whose interval has zero width."""


@dataclass(frozen=True)
class CoderConfig:
    mode: str = "adaptive"
    model: str = "linear"
    rescale: str = "orig"
    #: 0 = rescale only when the count cap is hit; otherwise a periodic
    #: "forgetting" rescale every this many symbols (adaptive mode only).
    rescale_interval: int = 0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.model not in _MODELS:
            raise ValueError(f"unknown model: {self.model!r}")
        if self.rescale not in _RESCALES:
            raise ValueError(f"unknown rescale variant: {self.rescale!r}")
        if not 0 <= self.rescale_interval < 1 << 32:
            # the header stores the interval as an unsigned 32-bit field
            raise ValueError("rescale interval must be in [0, 2**32)")


@dataclass(frozen=True)
class StreamHeader:
    """A stream's header fields.  A static stream's ``counts`` is one
    ``array('I')``, read by the compiled loops and written by none; a
    tuple or list given here is converted to it once."""
    mode: str
    model: str
    rescale: str
    rescale_interval: int
    k: int
    n: int
    counts: array | None  # static mode only

    def __post_init__(self):
        if self.counts is not None and getattr(self.counts, "typecode", "") != "I":
            object.__setattr__(self, "counts", array("I", self.counts))


@dataclass
class DecodeStats:
    """Deterministic work counters of the decodes it was passed to.

    Each decode adds its counts to every field, so one object passed to
    several decodes holds their sums.  A decode that raises adds nothing.
    """
    symbols: int = 0
    search_iterations: int = 0
    iteration_histogram: Counter = field(default_factory=Counter)
    update_accesses: int = 0
    rescale_accesses: int = 0


class Encoder:
    """Carry-cached range encoder (LZMA-style shift-low discipline)."""

    __slots__ = ("low", "range", "cache", "cache_size", "out")

    def __init__(self):
        self.low = 0
        self.range = MASK32
        self.cache = 0
        self.cache_size = 1
        self.out = bytearray()

    def encode(self, cum_low: int, freq: int, total: int) -> None:
        if freq == 0:
            raise ZeroCountError("symbol has zero count")
        r = self.range // total
        self.low += r * cum_low
        self.range = r * freq
        while self.range < TOP:
            self._shift_low()
            self.range = (self.range << 8) & MASK32

    def _shift_low(self) -> None:
        low = self.low
        if low < 0xFF000000 or low > MASK32:
            carry = low >> 32
            out = self.out
            out.append((self.cache + carry) & 0xFF)
            while self.cache_size > 1:
                out.append((0xFF + carry) & 0xFF)
                self.cache_size -= 1
            self.cache = (low >> 24) & 0xFF
        else:
            self.cache_size += 1
        self.low = (low << 8) & MASK32

    def finish(self) -> bytes:
        """Flush the carry chain; the decoder preloads these 5 bytes."""
        for _ in range(5):
            self._shift_low()
        return bytes(self.out)


class Decoder:
    """Mirror of the encoder: reads bytes during renormalization."""

    __slots__ = ("buf", "pos", "range", "code", "_r")

    def __init__(self, payload: bytes):
        if len(payload) < 5:
            raise StreamFormatError("truncated payload")
        self.buf = payload
        self.pos = 0
        self.range = MASK32
        self.code = 0
        self._r = 0
        # first byte is the flush artifact; shifting 5 bytes through a
        # 32-bit register discards it
        for _ in range(5):
            self.code = ((self.code << 8) | self._byte()) & MASK32

    def _byte(self) -> int:
        # a valid stream never reads past its last byte, so running out
        # bounds the work a forged symbol count can cause
        try:
            b = self.buf[self.pos]
        except IndexError:
            raise StreamFormatError("payload ends before the last symbol") from None
        self.pos += 1
        return b

    def decode_target(self, total: int) -> int:
        """Code value c in [0, total); caches the divisor for consume()."""
        self._r = self.range // total
        c = self.code // self._r
        return total - 1 if c >= total else c

    def consume(self, cum_low: int, freq: int) -> None:
        r = self._r
        self.code -= r * cum_low
        self.range = r * freq
        while self.range < TOP:
            self.code = ((self.code << 8) | self._byte()) & MASK32
            self.range = (self.range << 8) & MASK32


def pack_header(header: StreamHeader) -> bytes:
    out = struct.pack(
        _HEADER_FMT, MAGIC, VERSION,
        _MODES.index(header.mode), _MODELS.index(header.model),
        _RESCALES.index(header.rescale), header.rescale_interval,
        header.k, header.n,
    )
    if header.mode == "static":
        table = np.asarray(header.counts, "<u4")  # a view on little-endian hosts
        if len(table) != header.k:
            raise ValueError(f"{len(table)} counts for an alphabet of size "
                             f"{header.k}")
        out += table.tobytes()
    return out


def unpack_header(payload: bytes) -> tuple[StreamHeader, int]:
    """Parse the header; returns (header, offset of coded bytes)."""
    if len(payload) < _HEADER_SIZE:
        raise StreamFormatError("truncated header")
    magic, version, mode, model, rescale, interval, k, n = struct.unpack_from(
        _HEADER_FMT, payload)
    if magic != MAGIC:
        raise StreamFormatError("bad magic")
    if version != VERSION:
        raise StreamFormatError(f"unsupported version {version}")
    try:
        mode = _MODES[mode]
        model = _MODELS[model]
        rescale = _RESCALES[rescale]
    except IndexError:
        raise StreamFormatError("unknown mode/model/rescale id") from None
    if not 1 <= k <= MAX_ALPHABET:
        raise StreamFormatError(f"invalid alphabet size {k}")
    counts = None
    offset = _HEADER_SIZE
    if mode == "static":
        end = offset + 4 * k
        if len(payload) < end:
            raise StreamFormatError("truncated count table")
        counts = array("I")
        counts.frombytes(memoryview(payload)[offset:end])
        if sys.byteorder == "big":
            counts.byteswap()
        offset = end
        total = int(np.frombuffer(counts, np.uint32).sum(dtype=np.int64))
        # an empty static stream legitimately carries an all-zero table
        if (n and total == 0) or total > MAX_TOTALCOUNT:
            raise StreamFormatError(f"invalid static count total {total}")
    return StreamHeader(mode, model, rescale, interval, k, n, counts), offset


def normalize_counts(counts) -> array:
    """Divide first-pass counts (an ``np.bincount`` result or a list) so
    their total fits in STATIC_TOTAL_LIMIT, into an ``array('I')`` table.

    Nonzero counts never drop below one, so every observed symbol keeps a
    valid interval; that adds at most one per symbol, so the scaled total
    stays below ``STATIC_TOTAL_LIMIT + K``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total > STATIC_TOTAL_LIMIT:
        scaled = counts // -(-total // STATIC_TOTAL_LIMIT)
        counts = np.minimum(counts, np.maximum(scaled, 1))  # zeros stay 0
    return array("I", counts.astype(np.uint32).tobytes())


def _make_model(header: StreamHeader):
    # a static model never updates, so every static stream codes through
    # the prefix sums; the Fenwick array serves adaptive streams alone
    if header.mode == "static":
        return LinearModel(header.counts, adaptive=False)
    if header.model == "fenwick":
        return FenwickModel([1] * header.k, rescale_variant=header.rescale)
    # the linear model has a single rescale rule (count halving, identical
    # to the fenwick "orig" rounding); the variant field is carried in the
    # header for symmetry but does not change linear behaviour
    return LinearModel([1] * header.k)


def default_strategy(model: str) -> str:
    return "bi" if model == "fenwick" else "log"


def encode_stream(symbols, k: int, config: CoderConfig) -> bytes:
    """Compress a symbol sequence into a self-describing stream.

    ``check_symbols`` converts the sequence once, to the ``array('I')``
    both loops take, and checks it before either loop runs: the compiled
    loops index the model unchecked.  A static stream's first pass is one
    ``np.bincount`` of that array."""
    symbols = check_symbols(symbols, k)
    counts = None
    if config.mode == "static":
        counts = normalize_counts(
            np.bincount(np.frombuffer(symbols, np.uint32), minlength=k))
    header = StreamHeader(config.mode, config.model, config.rescale,
                          config.rescale_interval if config.mode == "adaptive" else 0,
                          k, len(symbols), counts)
    head = pack_header(header)
    lib = _loops.lib()
    coded = (_encode_python(symbols, header, _make_model(header)) if lib is None
             else _encode_compiled(lib, symbols, header))
    return b"".join((head, coded))


def _encode_python(symbols: array, header: StreamHeader, model) -> bytes:
    """The coded bytes of ``symbols``: the reference stream loop."""
    enc = Encoder()
    adaptive = header.mode == "adaptive"
    interval = header.rescale_interval
    for pos, s in enumerate(symbols):
        enc.encode(model.cum(s), model.count(s), model.total_count)
        if adaptive:
            model.update(s)
            if interval and (pos + 1) % interval == 0:
                model.rescale()
    return enc.finish()


def decode_stream(payload: bytes, strategy: str | None = None,
                  stats: DecodeStats | None = None,
                  max_symbols: int = MAX_SYMBOLS) -> tuple[StreamHeader, list[int]]:
    """Decompress a stream, the one-strategy case of ``count_stream``:
    the strategy is checked but never changes the output."""
    return count_stream(payload, {strategy: stats}, max_symbols)


def count_stream(payload: bytes, counted: dict,
                 max_symbols: int = MAX_SYMBOLS) -> tuple[StreamHeader, list[int]]:
    """Decode a stream once and add each strategy's counters to its stats.

    ``counted`` maps strategies (None: the stream's default) to
    ``DecodeStats`` (None: count nothing), checked with the header's
    symbol count (at most ``max_symbols``) before any decode work.  With
    stats to fill, the stream decodes in the Python loop and
    ``search.count_iterations`` counts each strategy off it; otherwise in
    the compiled loop, where ``_loops`` loaded it.
    """
    header, offset = unpack_header(payload)
    if header.n > max_symbols:
        raise StreamFormatError(f"header claims {header.n} symbols, more than "
                                f"the limit of {max_symbols}")
    default = default_strategy(header.model)
    for strategy in counted:
        reason = strategy_compatible(default if strategy is None else strategy,
                                     header.model, header.mode)
        if reason is not None:
            raise ValueError(reason)
    if len(payload) < offset + 5:
        raise StreamFormatError("truncated payload")
    counted = {default if strategy is None else strategy: stats
               for strategy, stats in counted.items() if stats is not None}
    lib = None if counted else _loops.lib()
    if lib is None:
        model = _make_model(header)
        symbols, pos = _decode_python(payload, offset, header, model)
    else:
        symbols, pos = _decode_compiled(lib, bytes(payload), offset, header)
    if pos != len(payload):
        raise StreamFormatError("trailing bytes after the last symbol")
    adaptive = header.mode == "adaptive"
    for strategy, stats in counted.items():
        hist = _search.count_iterations(strategy, model, adaptive, symbols)
        stats.symbols += header.n
        stats.search_iterations += sum(it * n for it, n in hist.items())
        stats.iteration_histogram.update(hist)
        stats.update_accesses += model.update_accesses
        stats.rescale_accesses += model.rescale_accesses
    return header, symbols


def _decode_python(payload: bytes, offset: int, header: StreamHeader,
                   model) -> tuple[list[int], int]:
    """The reference stream loop: the decoded symbols and the position
    after the last byte read.

    An adaptive fenwick stream finds its symbol with
    ``binary_indexed_interval``; every linear stream, static or adaptive,
    bisects the prefix sums with ``bisect_right``.
    """
    interval = header.rescale_interval
    adaptive = header.mode == "adaptive"
    fenwick = isinstance(model, FenwickModel)
    dec = Decoder(payload[offset:])
    symbols: list[int] = []
    for i in range(header.n):
        c = dec.decode_target(model.total_count)
        if fenwick:
            sym, low, freq = binary_indexed_interval(c, model)
        else:
            sym = bisect_right(model.hk, c) - 1
            low, freq = model.cum(sym), model.count(sym)
        dec.consume(low, freq)
        symbols.append(sym)
        if adaptive:
            model.update(sym)
            if interval and (i + 1) % interval == 0:
                model.rescale()
    return symbols, offset + dec.pos


def _compiled_loop(lib, kind: str, header: StreamHeader):
    """The compiled ``kind`` loop, "encode" or "decode", of the stream's
    model family, and the buffers it takes after the symbols: the counts
    (``header.counts``, which it only reads, or K ones), a K + 1 entry
    array in which its first call derives ``hk`` or ``v`` and the total,
    and the settings in ``cfg`` order.  The first call checks the total
    against ``linear_model``'s cap, as ``prefix_sums`` does, and a model
    rescales at its family module's cap; both are read at call time, so
    a ``MAX_TOTALCOUNT`` patched there applies.  No model is built; as in
    ``_make_model``, a static stream codes through the prefix sums."""
    k, adaptive = header.k, header.mode == "adaptive"
    family, module = (("fenwick", _fenwick) if adaptive and header.model == "fenwick"
                      else ("linear", _linear))
    cfg = array("q", (k, adaptive, header.rescale_interval if adaptive else 0,
                      module.MAX_TOTALCOUNT, header.rescale == "new",
                      _linear.MAX_TOTALCOUNT))
    return (getattr(lib, f"{family}_{kind}"),
            (array("I", [1]) * k if adaptive else header.counts,
             array("I", [0]) * (k + 1), cfg))


def _address(buf: array) -> int:
    return buf.buffer_info()[0]


def _encode_compiled(lib, data: array, header: StreamHeader) -> memoryview:
    """``_encode_python`` in the compiled loop, ``CHUNK`` symbols a call:
    a view of the coded bytes in the loop's output buffer."""
    loop, buffers = _compiled_loop(lib, "encode", header)
    # before a symbol the range is at least 2**24 and the total at most
    # 2**20, so the symbol leaves a range of at least 16 and shifts out
    # at most three bytes; the flush shifts out five
    out = array("B", [0]) * (3 * len(data) + 5)
    # range, low, bytes out, symbols coded, total, cache, cache size
    state = array("q", (MASK32, 0, 0, 0, 0, 0, 1))
    args = [_address(x) for x in (data, *buffers)]
    done = 0
    while True:
        step = min(len(data) - done, CHUNK)
        done += step
        size = loop(_address(out), len(out), _address(state), step,
                    done == len(data), *args)
        if size < 0:  # -2 leaves a total above the limit in st[TOTAL]
            _linear.check_total(state[4])
            raise RuntimeError("compiled encode ran past its output bound")
        if done == len(data):
            return memoryview(out)[:size]


def _decode_compiled(lib, payload: bytes, offset: int,
                     header: StreamHeader) -> tuple[list[int], int]:
    """``_decode_python`` in the compiled loop, ``CHUNK`` symbols a call:
    the buffer never grows with the header's symbol count, and signals
    are handled between calls.  An empty stream takes one call too, which
    checks its count total."""
    loop, buffers = _compiled_loop(lib, "decode", header)
    n = header.n
    out = array("I", [0]) * min(n, CHUNK)
    # range, code, payload position, symbols decoded, total; the first
    # payload byte is the flush artifact and falls out of 32 bits
    code = int.from_bytes(payload[offset + 1:offset + 5], "big")
    state = array("q", (MASK32, code, offset + 5, 0, 0, 0, 0))
    args = [_address(x) for x in (out, *buffers)]
    symbols: list[int] = []
    while True:
        got = loop(payload, len(payload), _address(state),
                   min(n - len(symbols), CHUNK), *args)
        if got < 0:  # -2 leaves a total above the limit in st[TOTAL]
            _linear.check_total(state[4])
            raise StreamFormatError("payload ends before the last symbol")
        if got == n:  # one call decoded the whole stream
            return out.tolist(), state[2]
        symbols += out[:got].tolist()
        if len(symbols) == n:
            return symbols, state[2]
