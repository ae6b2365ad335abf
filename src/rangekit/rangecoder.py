"""Byte-oriented range coder plus static/adaptive stream drivers.

Register discipline: 32-bit range, renormalization in base 256 whenever
the range drops below 2^24, 64-bit low accumulator with a cache byte and
pending-0xFF counter for carry propagation, 5-byte flush.  Because model
totals are capped at 2^20 < 2^24, range/total never truncates to zero.

The stream self-describes via a fixed little-endian header; the search
strategy is deliberately NOT part of the header because it does not
affect the bitstream, only how fast the decoder finds each symbol.

``encode_stream`` and ``decode_stream`` run the compiled loops of
``_loops.c`` where ``_loops`` loaded them, and otherwise their Python
loops: the fallback, and the reference that the compiled loops must
match byte for byte.  These code each symbol with ``Encoder``/``Decoder``
and the model's own methods, with no speed machinery, so under CPython
the work counters, not their wall clock, compare the algorithms.
"""

from __future__ import annotations

import operator
import struct
import sys
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import _loops
from . import fenwick_model as _fenwick
from . import linear_model as _linear
from .datagen import (MAX_ALPHABET, check_symbols, convert_symbols,
                      outside_alphabet)
from .fenwick_model import RESCALES, FenwickModel
from .linear_model import MAX_TOTALCOUNT, LinearModel
from . import search as _search
from .search import binary_indexed_interval, strategy_compatible

TOP = 1 << 24
MASK32 = 0xFFFFFFFF

MAGIC = b"IRC1"
VERSION = 1

#: The total that ``normalize_counts`` scales static counts to.
STATIC_TOTAL_LIMIT = 1 << 16

#: A stream's modes and models; each one's position is its byte in the
#: IRC1 header (as is a rescale's in ``fenwick_model.RESCALES``), so the
#: order is fixed.
MODES = ("static", "adaptive")
MODELS = ("linear", "fenwick")

#: A decode's default symbol limit: 8 bytes a symbol in the list, 128 MiB.
MAX_SYMBOLS = 1 << 24

_HEADER_FMT = "<4sBBBBIIQ"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)

# one zero entry, repeated into a static stream's first-pass counts: a
# copy of it costs less than a new array("I", [0]).  No loop is handed it.
_ZERO_I = array("I", [0])


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
        _check_names(self.mode, self.model, self.rescale)
        _check_int("rescale interval", self.rescale_interval, 32)


def _check_names(mode: str, model: str, rescale: str) -> None:
    """Raise ValueError unless each name has a byte in the IRC1 header."""
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    if model not in MODELS:
        raise ValueError(f"unknown model: {model!r}")
    if rescale not in RESCALES:
        raise ValueError(f"unknown rescale variant: {rescale!r}")


def _check_int(name: str, value, bits: int) -> None:
    """Raise ValueError unless ``value`` is an integer (``operator.index``
    takes it) that fits the header's unsigned field of ``bits`` bits."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not 0 <= value < 1 << bits:
        raise ValueError(f"{name} must be in [0, 2**{bits}), got {value}")


@dataclass(slots=True)
class StreamHeader:
    """A stream's header fields.  A static stream's ``counts`` is one
    ``array('I')`` of K entries, converted once from a tuple or list."""
    mode: str
    model: str
    rescale: str
    rescale_interval: int
    k: int
    n: int
    counts: array | None  # static mode only

    def __post_init__(self):
        _check_names(self.mode, self.model, self.rescale)
        # one test on every header's way, which a float fails with
        # TypeError; only a failure names its field
        try:
            fits = not ((self.rescale_interval | self.k) >> 32 or self.n >> 64)
        except TypeError:
            fits = False
        if not fits:
            _check_int("rescale interval", self.rescale_interval, 32)
            _check_int("alphabet size", self.k, 32)
            _check_int("symbol count", self.n, 64)
        if (self.mode == "static") != (self.counts is not None):
            raise ValueError("a static header, and no other, has a count table")
        if self.counts is not None:
            if getattr(self.counts, "typecode", "") != "I":
                try:
                    self.counts = array("I", self.counts)
                except (OverflowError, TypeError):
                    raise ValueError("counts must be integers in [0, 2**32), "
                                     f"got {self.counts!r}") from None
            if (size := len(self.counts)) != self.k:
                raise ValueError(f"{size} counts for an alphabet of size {self.k}")


def _table_total(counts: array) -> int:
    """The sum of an ``array('I')`` count table, in 64 bits."""
    return int(np.add.reduce(np.frombuffer(counts, np.uint32), dtype=np.int64))


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
    rescale_events: int = 0


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
        MODES.index(header.mode), MODELS.index(header.model),
        RESCALES.index(header.rescale), header.rescale_interval,
        header.k, header.n,
    )
    if header.mode == "static":
        table = header.counts
        if sys.byteorder == "big":
            table = array("I", table)
            table.byteswap()
        out += table
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
        mode = MODES[mode]
        model = MODELS[model]
        rescale = RESCALES[rescale]
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
        # an empty static stream legitimately carries an all-zero table
        if not min(n, 1) <= (total := _table_total(counts)) <= MAX_TOTALCOUNT:
            raise StreamFormatError(f"invalid static count total {total}")
    return StreamHeader(mode, model, rescale, interval, k, n, counts), offset


def normalize_counts(counts) -> array:
    """Divide first-pass counts (an ``array('I')`` or a list) so their
    total fits in STATIC_TOTAL_LIMIT, into an ``array('I')`` table.

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
    # the prefix sums; the linear model has one rescale (_loop_args)
    if header.mode == "static":
        return LinearModel(header.counts, adaptive=False)
    if header.model == "fenwick":
        return FenwickModel([1] * header.k, rescale_variant=header.rescale)
    return LinearModel([1] * header.k)


def default_strategy(model: str) -> str:
    return "bi" if model == "fenwick" else "log"


def encode_stream(symbols, k: int, config: CoderConfig) -> bytes:
    """Compress a symbol sequence into a self-describing stream.

    One pass checks the symbols against K, which the compiled loops
    index unchecked, and counts a static stream's symbols, the table of
    a stream of at most ``STATIC_TOTAL_LIMIT`` symbols unscaled."""
    lib = _loops.lib()
    static = config.mode == "static"
    if lib is None:
        symbols = check_symbols(symbols, k)
        counts = _histogram(symbols, k) if static else None
    else:
        symbols, k = convert_symbols(symbols, k)
        counts = _ZERO_I * k if static else None
        bad = (lib.first_pass(symbols, k, counts) if static
               else lib.first_pass(symbols, k))
        if bad < len(symbols):
            raise outside_alphabet(symbols[bad], k)
    if static and len(symbols) > STATIC_TOTAL_LIMIT:
        counts = normalize_counts(counts)
    header = StreamHeader(config.mode, config.model, config.rescale,
                          0 if static else config.rescale_interval,
                          k, len(symbols), counts)
    head = pack_header(header)
    coded = (_encode_python(symbols, header, _make_model(header)) if lib is None
             else _encode_compiled(lib, symbols, header))
    return b"".join((head, coded))


def _histogram(symbols: array, k: int) -> array:
    """The count of each symbol of ``symbols``, all below K, as the K
    entries of an ``array('I')``."""
    counts = np.bincount(np.frombuffer(symbols, np.uint32), minlength=k)
    return array("I", counts.astype(np.uint32).tobytes())


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
    """Decompress a stream, the one-strategy case of ``count_stream``;
    ``strategy`` is checked against the stream, whose search it does not
    pick (see ``search``)."""
    return count_stream(payload, {strategy: stats}, max_symbols)


def count_stream(payload: bytes, counted: dict,
                 max_symbols: int = MAX_SYMBOLS) -> tuple[StreamHeader, list[int]]:
    """Decode a stream once and add each strategy's counters to its stats.

    ``counted`` maps strategies (None: the stream's default) to
    ``DecodeStats`` (None: count nothing), checked with the header's
    symbol count (at most ``max_symbols`` >= 0) before any decode work.
    """
    if max_symbols < 0:
        raise ValueError(f"symbol limit must be at least 0, got {max_symbols}")
    header, offset = unpack_header(payload)
    if header.n > max_symbols:
        raise StreamFormatError(f"header claims {header.n} symbols, more than "
                                f"the limit of {max_symbols}")
    default = default_strategy(header.model)
    kept = []  # the (strategy, stats) pairs that count
    for strategy, stats in counted.items():
        if strategy is None:
            strategy = default
        reason = strategy_compatible(strategy, header.model, header.mode)
        if reason is not None:
            raise ValueError(reason)
        if stats is not None:
            kept.append((strategy, stats))
    if len(payload) < offset + 5:
        raise StreamFormatError("truncated payload")
    lib = _loops.lib()
    symbols, pos, rescales = (
        _decode_python(payload, offset, header) if lib is None
        else _decode_compiled(lib, payload, offset, header))
    if pos != len(payload):
        raise StreamFormatError("trailing bytes after the last symbol")
    if kept:
        _add_stats(kept, header, symbols, rescales)
    return header, symbols


def _add_stats(counted: list, header: StreamHeader, symbols: list[int],
               rescales: int) -> None:
    """Add the counts the models tally for a decode of ``symbols`` with
    ``rescales`` rescales: an update of s makes K + 1 - s accesses in the
    linear model and one per entry of its chain from s + 1 in the Fenwick
    one."""
    k, adaptive = header.k, header.mode == "adaptive"
    # a list, not a range: adaptive log2 indexes it once per symbol
    hk = list(range(k + 1) if adaptive else accumulate(header.counts, initial=0))
    if adaptive and header.model == "fenwick":
        # node j is on the update chains of the symbols in [j & (j - 1), j),
        # and below[j] counts the decoded symbols below j
        below = np.bincount(np.array(symbols, np.int64) + 1, minlength=k + 1).cumsum()
        j = np.arange(1, k + 1)
        updates = int((below[j] - below[j & (j - 1)]).sum())
        cost = _fenwick.rescale_cost(k, header.rescale)
    else:
        updates = (len(symbols) * (k + 1) - sum(symbols)) * adaptive
        cost = _linear.rescale_cost(k)
    tally = Counter(symbols)  # once for every strategy
    for strategy, stats in counted:
        hist = _search.count_iterations(strategy, hk, adaptive, symbols, tally)
        stats.symbols += header.n
        stats.search_iterations += sum(it * n for it, n in hist.items())
        stats.iteration_histogram.update(hist)
        stats.update_accesses += updates
        stats.rescale_accesses += rescales * cost
        stats.rescale_events += rescales


def _decode_python(payload: bytes, offset: int,
                   header: StreamHeader) -> tuple[list[int], int, int]:
    """The reference stream loop: the decoded symbols, the position after
    the last byte read and the number of rescales."""
    model = _make_model(header)
    interval = header.rescale_interval
    adaptive = header.mode == "adaptive"
    fenwick = isinstance(model, FenwickModel)
    dec = Decoder(payload[offset:])
    symbols: list[int] = []
    rescales = 0
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
            rescales += model.update(sym)
            if interval and (i + 1) % interval == 0:
                model.rescale()
                rescales += 1
    return symbols, offset + dec.pos, rescales


def _loop_args(header: StreamHeader) -> tuple:
    """The arguments ``(counts, k, interval, cap, new_rescale)`` that
    ``_loops.c``'s ``encode`` and ``decode`` take for the stream; the cap
    is read at each call, so a patched one applies.

    The loop follows the header's mode alone, not its model byte.  A
    static stream codes through the prefix sums.  Every adaptive stream
    runs the Fenwick loops, which halve the counts at a rescale, as
    Fenwick ``orig`` does and as the linear model does whatever its
    rescale byte, so a linear stream codes to the same bytes; only a
    Fenwick ``new`` header rescales by ``new``."""
    return (header.counts, header.k, header.rescale_interval,
            _linear.MAX_TOTALCOUNT,
            header.model == "fenwick" and header.rescale == "new")


def _encode_compiled(lib, symbols: array, header: StreamHeader) -> bytes:
    """``_encode_python`` in one call of the compiled encode."""
    return lib.encode(symbols, *_loop_args(header))


def _decode_compiled(lib, payload: bytes, offset: int,
                     header: StreamHeader) -> tuple[list[int], int, int]:
    """``_decode_python`` in one call of the compiled decode."""
    decoded = lib.decode(payload, offset, *_loop_args(header), header.n)
    if decoded is None:
        raise StreamFormatError("payload ends before the last symbol")
    return decoded
