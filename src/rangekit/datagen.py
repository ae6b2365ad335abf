"""Deterministic synthetic symbol sequences (flat and truncated geometric).

The generator is pinned to a SplitMix64 stream (additive constant
0x9E3779B97F4A7C15 plus the standard finalizer) so the same spec produces
the same sequence on every platform.  Geometric sampling goes through the
inverse CDF of the truncated distribution, so the target probabilities are
exact rather than a rejection approximation.
"""

from __future__ import annotations

import math
import operator
import os
import struct
from array import array
from dataclasses import dataclass

import numpy as np

SPLITMIX_GAMMA = 0x9E3779B97F4A7C15

#: The distributions ``gen_sequence`` draws from.
DISTRIBUTIONS = ("flat", "geometric")

#: ISY1 stores symbols as uint16, so no alphabet is larger than this; the
#: stream header and the encoder share the limit.
MAX_ALPHABET = 1 << 16

ISY_MAGIC = b"ISY1"
_ISY_FMT = "<4sIQ"
_ISY_SIZE = struct.calcsize(_ISY_FMT)


def convert_symbols(symbols, k) -> tuple[array, int]:
    """``symbols`` as one ``array('I')`` and K as an int, both checked
    except for symbols at or above K below 2**32: the conversion of
    ``check_symbols``.  A numpy array becomes a list through ``tolist``,
    since its fixed-width items wrap in index arithmetic, and any other
    non-list through ``list()``, so an iterator survives the rescan that
    names a bad symbol; ``fromlist`` reads a list's items directly, where
    ``array('I', seq)`` fetches each through the sequence protocol."""
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"alphabet size must be an integer, got {k!r}") from None
    if not 1 <= k <= MAX_ALPHABET:
        raise ValueError(f"alphabet size must be in [1, {MAX_ALPHABET}]")
    if hasattr(symbols, "tolist"):
        symbols = symbols.tolist()
    elif not isinstance(symbols, list):
        symbols = list(symbols)
    data = array("I")
    try:
        data.fromlist(symbols)
    except OverflowError:  # a symbol below 0 or at or above 2**32
        raise outside_alphabet(next(s for s in symbols if not 0 <= s < k),
                               k) from None
    return data, k


def outside_alphabet(symbol: int, k: int) -> ValueError:
    """The error that names the first symbol outside an alphabet of size k."""
    return ValueError(f"symbol {symbol} outside alphabet of size {k}")


def check_symbols(symbols, k) -> array:
    """``symbols`` as one ``array('I')`` (``convert_symbols``), checked
    against an alphabet of size k by one numpy reduction."""
    data, k = convert_symbols(symbols, k)
    if data and np.frombuffer(data, np.uint32).max() >= k:
        raise outside_alphabet(next(s for s in data if s >= k), k)
    return data


@dataclass(frozen=True)
class GenSpec:
    distribution: str  # one of DISTRIBUTIONS
    k: int
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution: {self.distribution!r}")
        if not 1 <= self.k <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in [1, {MAX_ALPHABET}]")
        if self.n < 0:
            raise ValueError("sequence length must be >= 0")
        # splitmix64 takes n uint64 words, and numpy holds no array of more
        # than the largest intp bytes: its arange then comes back empty or
        # raises
        most = np.iinfo(np.intp).max // 8
        if self.n > most:
            raise ValueError(f"sequence length must be at most {most}, "
                             f"got {self.n}")


def geom_params(k: int) -> tuple[int, float]:
    """Shape exponent and decay factor of the truncated geometric family.

    The decay slows as the alphabet grows so even the rarest symbol keeps
    a nonzero expected count.
    """
    if k < 1:
        raise ValueError("alphabet size must be >= 1")
    expo = max(0, int(math.floor(math.log2(k))) - 4)
    p = 2.0 ** (-1.0 / (1 << expo))
    return expo, p


def geometric_probs(k: int) -> np.ndarray:
    """Exact probabilities p(s_i) = (1-p) p^i / (1 - p^K)."""
    _, p = geom_params(k)
    probs = (1.0 - p) * p ** np.arange(k)
    return probs / probs.sum()


def splitmix64(seed: int, n: int) -> np.ndarray:
    """First n outputs of the SplitMix64 stream seeded with ``seed``."""
    idx = np.arange(1, n + 1, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * np.uint64(SPLITMIX_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def gen_sequence(spec: GenSpec) -> np.ndarray:
    """N symbols in [0, K) as a uint16 array; bit-for-bit reproducible."""
    if spec.n == 0:
        return np.zeros(0, dtype=np.uint16)
    z = splitmix64(spec.seed, spec.n)
    if spec.distribution == "flat":
        syms = z % np.uint64(spec.k)
    else:
        # uniform double in [0, 1) from the top 53 bits, then inverse CDF
        u = (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        cdf = np.cumsum(geometric_probs(spec.k))
        syms = np.searchsorted(cdf, u, side="right")
        syms = np.minimum(syms, spec.k - 1)
    return syms.astype(np.uint16)


def write_symbols(path, k: int, symbols) -> None:
    """Write an ISY1 file.  K and every symbol are checked
    (``check_symbols``) before the file is opened, so no symbol wraps in
    its uint16 field and ``encode`` takes every file written."""
    data = check_symbols(symbols, k)
    with open(path, "wb") as fh:
        fh.write(struct.pack(_ISY_FMT, ISY_MAGIC, k, len(data)))
        fh.write(np.frombuffer(data, np.uint32).astype("<u2").tobytes())


def read_symbols(path) -> tuple[int, np.ndarray]:
    with open(path, "rb") as fh:
        head = fh.read(_ISY_SIZE)
        if len(head) < _ISY_SIZE:
            raise ValueError("truncated symbol file")
        magic, k, n = struct.unpack(_ISY_FMT, head)
        if magic != ISY_MAGIC:
            raise ValueError("bad magic")
        # the header's n is untrusted: check it against the file's size
        # before asking for 2n bytes
        if os.fstat(fh.fileno()).st_size - _ISY_SIZE < 2 * n:
            raise ValueError("truncated symbol file")
        data = fh.read(2 * n)
    return k, np.frombuffer(data, dtype="<u2").astype(np.uint16)
