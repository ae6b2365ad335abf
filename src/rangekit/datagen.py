"""Deterministic synthetic symbol sequences (flat and truncated geometric).

The generator is pinned to a SplitMix64 stream (additive constant
0x9E3779B97F4A7C15 plus the standard finalizer) so the same spec produces
the same sequence on every platform.  Geometric sampling goes through the
inverse CDF of the truncated distribution, so the target probabilities are
exact rather than a rejection approximation.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

SPLITMIX_GAMMA = 0x9E3779B97F4A7C15

#: ISY1 stores symbols as uint16, so no alphabet is larger than this; the
#: stream header and the encoder share the limit.
MAX_ALPHABET = 1 << 16

ISY_MAGIC = b"ISY1"
_ISY_FMT = "<4sIQ"
_ISY_SIZE = struct.calcsize(_ISY_FMT)


@dataclass(frozen=True)
class GenSpec:
    distribution: str  # "flat" | "geometric"
    k: int
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.distribution not in ("flat", "geometric"):
            raise ValueError(f"unknown distribution: {self.distribution!r}")
        if not 1 <= self.k <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in [1, {MAX_ALPHABET}]")
        if self.n < 0:
            raise ValueError("sequence length must be >= 0")


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
    arr = np.asarray(symbols, dtype=np.uint16)
    with open(path, "wb") as fh:
        fh.write(struct.pack(_ISY_FMT, ISY_MAGIC, k, len(arr)))
        fh.write(arr.astype("<u2").tobytes())


def read_symbols(path) -> tuple[int, np.ndarray]:
    with open(path, "rb") as fh:
        head = fh.read(_ISY_SIZE)
        if len(head) < _ISY_SIZE:
            raise ValueError("truncated symbol file")
        magic, k, n = struct.unpack(_ISY_FMT, head)
        if magic != ISY_MAGIC:
            raise ValueError("bad magic")
        data = fh.read(2 * n)
    if len(data) < 2 * n:
        raise ValueError("truncated symbol file")
    return k, np.frombuffer(data, dtype="<u2").astype(np.uint16)
