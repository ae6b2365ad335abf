"""Byte-oriented range coder plus static/adaptive stream drivers.

Register discipline: 32-bit range, renormalization in base 256 whenever
the range drops below 2^24, 64-bit low accumulator with a cache byte and
pending-0xFF counter for carry propagation, 5-byte flush.  Because model
totals are capped at 2^20 < 2^24, range/total never truncates to zero.

The stream self-describes via a fixed little-endian header; the search
strategy is deliberately NOT part of the header because it does not
affect the bitstream, only how fast the decoder finds each symbol.

``Encoder`` and ``Decoder`` are the step-by-step reference of the register
discipline.  The stream functions ``encode_stream``/``decode_stream`` keep
copies of the same registers in locals and repeat their arithmetic inline,
which spares two method calls per symbol; they must stay bit-identical.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field

from .datagen import MAX_ALPHABET
from .fenwick_model import FenwickModel
from .linear_model import MAX_TOTALCOUNT, LinearModel
from . import search as _search
from .search import strategy_compatible

TOP = 1 << 24
MASK32 = 0xFFFFFFFF

MAGIC = b"IRC1"
VERSION = 1

#: Static-mode counts are scaled so the total fits in 16 bits; keeps the
#: header small and totals far below the renormalization threshold.
STATIC_TOTAL_LIMIT = 1 << 16

_MODES = ("static", "adaptive")
_MODELS = ("linear", "fenwick")
_RESCALES = ("orig", "new")

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
    mode: str
    model: str
    rescale: str
    rescale_interval: int
    k: int
    n: int
    counts: tuple[int, ...] | None  # static mode only


@dataclass
class DecodeStats:
    """Deterministic work counters collected during one decode pass."""
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
        out += struct.pack(f"<{header.k}I", *header.counts)
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
        counts = struct.unpack_from(f"<{k}I", payload, offset)
        offset = end
        total = sum(counts)
        # an empty static stream legitimately carries an all-zero table
        if (n and total == 0) or total > MAX_TOTALCOUNT:
            raise StreamFormatError(f"invalid static count total {total}")
    return StreamHeader(mode, model, rescale, interval, k, n, counts), offset


def normalize_counts(counts) -> list[int]:
    """Scale first-pass counts so the total fits in 16 bits.

    Nonzero counts never drop below one, so every observed symbol keeps a
    valid interval.
    """
    total = sum(counts)
    if total <= STATIC_TOTAL_LIMIT:
        return list(counts)
    s = -(-total // STATIC_TOTAL_LIMIT)
    return [max(1, c // s) if c else 0 for c in counts]


def _make_model(header_or_cfg, k: int, counts=None):
    adaptive = header_or_cfg.mode == "adaptive"
    if counts is None:
        counts = [1] * k
    if header_or_cfg.model == "fenwick":
        return FenwickModel(counts, adaptive=adaptive,
                            rescale_variant=header_or_cfg.rescale)
    # the linear model has a single rescale rule (count halving, identical
    # to the fenwick "orig" rounding); the variant field is carried in the
    # header for symmetry but does not change linear behaviour
    return LinearModel(counts, adaptive=adaptive)


def default_strategy(model: str) -> str:
    return "bi" if model == "fenwick" else "log"


def encode_stream(symbols, k: int, config: CoderConfig) -> bytes:
    """Compress a symbol sequence into a self-describing stream."""
    if not 1 <= k <= MAX_ALPHABET:
        raise ValueError(f"alphabet size must be in [1, {MAX_ALPHABET}]")
    symbols = list(symbols)
    n = len(symbols)
    if n and (min(symbols) < 0 or max(symbols) >= k):
        bad = next(s for s in symbols if not 0 <= s < k)
        raise ValueError(f"symbol {bad} outside alphabet of size {k}")
    counts = None
    if config.mode == "static":
        raw = [0] * k
        for s in symbols:
            raw[s] += 1
        counts = normalize_counts(raw)
    header = StreamHeader(config.mode, config.model, config.rescale,
                          config.rescale_interval if config.mode == "adaptive" else 0,
                          k, n, tuple(counts) if counts is not None else None)
    enc = Encoder()
    if n:
        model = _make_model(header, k, counts)
        fenwick = header.model == "fenwick"
        hk = None if fenwick else model.hk
        h = None if fenwick else model.h
        adaptive = header.mode == "adaptive"
        interval = header.rescale_interval
        # Encoder.encode and Encoder._shift_low, registers in locals; every
        # count is >= 1 (data-derived static counts, adaptive counts), so
        # the zero-width check cannot fire here
        low, rng, cache, cache_size = enc.low, enc.range, enc.cache, enc.cache_size
        out = enc.out
        for pos, s in enumerate(symbols):
            r = rng // model.total_count
            if fenwick:
                low += r * model.cum(s)
                rng = r * model.count(s)
            else:
                low += r * hk[s]
                rng = r * h[s]
            while rng < TOP:
                if low < 0xFF000000 or low > MASK32:
                    carry = low >> 32
                    out.append((cache + carry) & 0xFF)
                    if cache_size > 1:
                        out += (b"\x00" if carry else b"\xff") * (cache_size - 1)
                        cache_size = 1
                    cache = (low >> 24) & 0xFF
                else:
                    cache_size += 1
                low = (low << 8) & MASK32
                rng <<= 8  # rng < 2**24 here, so no mask is needed
            if adaptive:
                model.update(s)
                if interval and (pos + 1) % interval == 0:
                    model.rescale()
        enc.low, enc.range, enc.cache, enc.cache_size = low, rng, cache, cache_size
    return pack_header(header) + enc.finish()


def decode_stream(payload: bytes, strategy: str | None = None,
                  stats: DecodeStats | None = None) -> tuple[StreamHeader, list[int]]:
    """Decompress a stream; the strategy only affects speed, never output."""
    header, offset = unpack_header(payload)
    if strategy is None:
        strategy = default_strategy(header.model)
    reason = strategy_compatible(strategy, header.model, header.mode)
    if reason is not None:
        raise ValueError(reason)
    symbols: list[int] = []
    if header.n == 0:
        if len(payload) != offset + 5:
            raise StreamFormatError("an empty stream carries exactly 5 payload bytes")
        return header, symbols
    if len(payload) < offset + 5:
        raise StreamFormatError("truncated payload")
    model = _make_model(header, header.k, list(header.counts) if header.counts else None)
    interval = header.rescale_interval
    adaptive = header.mode == "adaptive"
    fenwick = header.model == "fenwick"
    hk = None if fenwick else model.hk
    h = None if fenwick else model.h
    find, on_update = _search.KERNELS[strategy][2](model, adaptive)
    append = symbols.append

    # Decoder.__init__, decode_target and consume, registers in locals; the
    # first payload byte is the flush artifact and falls out of 32 bits
    rng = MASK32
    code = int.from_bytes(payload[offset + 1:offset + 5], "big")
    pos = offset + 5
    for i in range(header.n):
        total = model.total_count
        r = rng // total
        c = code // r
        if c >= total:
            c = total - 1
        if fenwick:
            sym, low, freq, iters = find(c, model)
        else:
            sym, iters = find(c, hk)
            low = hk[sym]
            freq = h[sym]
        code -= r * low
        rng = r * freq
        while rng < TOP:
            # a valid stream never reads past its last byte, so running out
            # bounds the work a forged symbol count can cause
            try:
                code = ((code << 8) | payload[pos]) & MASK32
            except IndexError:
                raise StreamFormatError(
                    "payload ends before the last symbol") from None
            pos += 1
            rng <<= 8  # rng < 2**24 here, so no mask is needed
        append(sym)
        if stats is not None:
            stats.symbols += 1
            stats.search_iterations += iters
            stats.iteration_histogram[iters] += 1
        if adaptive:
            rescaled = model.update(sym)
            if interval and (i + 1) % interval == 0:
                model.rescale()
                rescaled = True
            if on_update is not None:
                on_update(sym, rescaled)
    if pos != len(payload):
        raise StreamFormatError("trailing bytes after the last symbol")
    if stats is not None:
        stats.update_accesses = model.update_accesses
        stats.rescale_accesses = model.rescale_accesses
    return header, symbols
