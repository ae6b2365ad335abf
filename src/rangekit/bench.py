"""Instrumented benchmark harness.

One row per runnable (mode, model, search) of each distribution and K in
``POW2_KS``, and per rescale of an adaptive Fenwick stream: 320 rows for
both modes.  A pair ``strategy_compatible`` rejects gets no row.  A row
holds exact, reproducible work counters (search iterations, model-array
accesses, rescale accesses) and wall-clock throughput, which is
informative only.  Decode's search follows the stream (see ``search``),
so each stream is generated, encoded and counted once, and the timing
columns (minimum of several repetitions) are the same on all its rows.
"""

from __future__ import annotations

import csv
import time
from collections import Counter
from dataclasses import dataclass, fields
from itertools import accumulate, product

import numpy as np

from .datagen import DISTRIBUTIONS, GenSpec, check_symbols, gen_sequence
from .fenwick_model import RESCALES
from .linear_model import MAX_TOTALCOUNT
from .rangecoder import (
    MODELS, MODES, CoderConfig, DecodeStats, count_stream, decode_stream,
    encode_stream, strategy_compatible,
)
from . import search as _search
from .search import STRATEGIES

#: The grid's alphabet sizes and adaptive rescale interval; its other
#: axes are the imported value sets, whose order is the CSV's row order
POW2_KS = tuple(2 ** n for n in range(1, 11))
RESCALE_INTERVAL = 1024


@dataclass
class BenchRecord:
    mode: str
    distribution: str
    k: int
    n: int
    model: str
    search: str
    rescale: str
    rescale_interval: int
    seed: int
    encode_ns_per_symbol: float
    decode_ns_per_symbol: float
    avg_search_iterations: float
    avg_model_accesses_per_symbol: float
    rescale_access_count: int
    output_bytes: int
    entropy_bits_per_symbol: float


CSV_COLUMNS = [f.name for f in fields(BenchRecord)]


@dataclass(frozen=True)
class GridSpec:
    """The settings of a grid run; its axes are the module's constants."""
    modes: tuple = MODES
    n: int = 10 ** 6
    seed: int = 1
    timing_reps: int = 5

    def __post_init__(self):
        # a grid that cannot run fails here, before any of its cells runs
        GenSpec(DISTRIBUTIONS[0], POW2_KS[0], self.n, self.seed)
        for mode in self.modes:
            CoderConfig(mode, rescale_interval=RESCALE_INTERVAL)
        # the timed minimum needs a repetition
        if self.timing_reps < 1:
            raise ValueError(
                f"timing repetitions must be at least 1, got {self.timing_reps}")


@dataclass
class IterationStats:
    histogram: dict  # iteration count -> percentage
    average: float


def empirical_entropy(symbols, k: int) -> float:
    """Order-0 entropy of the sequence in bits per symbol."""
    counts = np.bincount(np.asarray(symbols, dtype=np.int64), minlength=k)
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts[counts > 0] / n
    return float(-(p * np.log2(p)).sum())


def run_stream(mode: str, distribution: str, k: int, model: str,
               strategies, rescale: str, n: int, seed: int,
               rescale_interval: int, timing_reps: int = 5) -> list[BenchRecord]:
    """One record per search in ``strategies``, all counted off one
    untimed decode of one encoded stream."""
    interval = rescale_interval if mode == "adaptive" else 0
    symbols = gen_sequence(GenSpec(distribution, k, n, seed)).tolist()
    cfg = CoderConfig(mode, model, rescale, interval)
    payload = encode_stream(symbols, k, cfg)
    counted = {strategy: DecodeStats() for strategy in strategies}
    if count_stream(payload, counted)[1] != symbols:
        raise AssertionError("round trip failed in bench cell")

    n_eff = max(1, n)
    enc_ns = min(_time_ns(lambda: encode_stream(symbols, k, cfg))
                 for _ in range(timing_reps)) / n_eff
    dec_ns = min(_time_ns(lambda: decode_stream(payload))
                 for _ in range(timing_reps)) / n_eff
    entropy = empirical_entropy(symbols, k)
    return [BenchRecord(mode, distribution, k, n, model, strategy, rescale,
                        interval, seed, enc_ns, dec_ns,
                        counted[strategy].search_iterations / n_eff,
                        counted[strategy].update_accesses / n_eff,
                        counted[strategy].rescale_accesses, len(payload), entropy)
            for strategy in strategies]


def run_cell(mode: str, distribution: str, k: int, model: str, strategy: str,
             rescale: str, n: int, seed: int, rescale_interval: int,
             timing_reps: int = 5) -> BenchRecord:
    """``run_stream`` with a single search."""
    return run_stream(mode, distribution, k, model, (strategy,), rescale, n,
                      seed, rescale_interval, timing_reps)[0]


def _time_ns(fn) -> int:
    t0 = time.perf_counter_ns()
    fn()
    return time.perf_counter_ns() - t0


def run_suite(grid: GridSpec) -> list[BenchRecord]:
    """Every runnable search of each distribution x K x mode x model cell,
    and of each rescale in an adaptive Fenwick one."""
    records = []
    for dist, k, mode, model in product(DISTRIBUTIONS, POW2_KS, grid.modes,
                                        MODELS):
        strategies = [s for s in STRATEGIES
                      if strategy_compatible(s, model, mode) is None]
        rescales = (RESCALES if (mode, model) == ("adaptive", "fenwick")
                    else RESCALES[:1])
        for rescale in rescales:
            records += run_stream(mode, dist, k, model, strategies, rescale,
                                  grid.n, grid.seed, RESCALE_INTERVAL,
                                  grid.timing_reps)
    return records


def write_csv(records, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow([getattr(rec, name) for name in CSV_COLUMNS])


def iteration_histogram(strategy: str, sequence, k: int) -> IterationStats:
    """Iteration statistics of a static decode of ``sequence``.

    The static boundaries are the raw sequence counts' prefix sums (no
    header normalization), so the statistics reflect the exact empirical
    distribution.
    """
    reason = strategy_compatible(strategy, "linear", "static")
    if reason is not None:
        raise ValueError(f"unsupported strategy for histogram: {reason}")
    sequence = check_symbols(sequence, k)
    n = len(sequence)
    if not 0 < n <= MAX_TOTALCOUNT:
        raise ValueError(f"sequence length must be in [1, {MAX_TOTALCOUNT}]")
    # one count of the sequence gives the boundaries and, in place of the
    # sequence, the tally of a static search
    weights = Counter(sequence)
    hk = list(accumulate((weights[s] for s in range(k)), initial=0))
    hist = _search.count_iterations(strategy, hk, False, weights, weights)
    average = sum(it * cnt for it, cnt in hist.items()) / n
    pct = {it: 100.0 * cnt / n for it, cnt in sorted(hist.items())}
    return IterationStats(pct, average)
