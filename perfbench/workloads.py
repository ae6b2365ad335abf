"""The four codec workloads and their untraced end-to-end measurement.

Only public functions of rangekit are called.  Inputs come from the seed
alone; every stream is checked for round-trip identity during set-up,
and every timed encode and decode is checked again after its timer stops.
"""

from __future__ import annotations

import statistics
import traceback
from dataclasses import dataclass, field
from time import monotonic, perf_counter_ns

from rangekit.datagen import GenSpec, gen_sequence
from rangekit.rangecoder import (
    CoderConfig, decode_stream, encode_stream, unpack_header,
)

from reference import NOMINAL_REF_NS, Paired, time_reference

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 5
#: Floor on timed repetitions, so a very short run still has a median.
MIN_REPS = 5
#: Rescale period of the adaptive workloads, in symbols.
RESCALE_INTERVAL = 1024


@dataclass(frozen=True)
class Workload:
    name: str
    config: CoderConfig
    distribution: str
    k: int
    search: str
    symbols_per_stream: int
    streams: int = 1
    #: streams per timed repetition
    chunk: int = 1

    def stream_seed(self, seed: int, j: int) -> int:
        return seed if self.streams == 1 else (seed << 20) + j

    def gen_specs(self, seed: int) -> list[GenSpec]:
        return [GenSpec(self.distribution, self.k, self.symbols_per_stream,
                         self.stream_seed(seed, j))
                for j in range(self.streams)]


WORKLOADS = {w.name: w for w in (
    Workload(
        "static-k64",
        CoderConfig("static", "linear", "orig", 0),
        "geometric", 64, "log", symbols_per_stream=50000),
    Workload(
        "adaptive-fenwick-k256",
        CoderConfig("adaptive", "fenwick", "new", RESCALE_INTERVAL),
        "geometric", 256, "bi", symbols_per_stream=20000),
    Workload(
        "adaptive-linear-table-k256",
        CoderConfig("adaptive", "linear", "orig", RESCALE_INTERVAL),
        "flat", 256, "table", symbols_per_stream=8192),
    Workload(
        "msg-static-k256",
        CoderConfig("static", "linear", "orig", 0),
        "geometric", 256, "tree", symbols_per_stream=256, streams=1024,
        chunk=64),
)}


@dataclass
class Tally:
    """Stream operations checked for identity, and the ones that failed."""
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, ok: bool, error: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if error and len(self.errors) < 10:
                self.errors.append(error)


def decode_checked(payload: bytes, search: str, expected: list[int],
                   tally: Tally) -> int:
    """Decode one stream and check it against ``expected``.

    Returns the decode_stream wall time in ns.  A stream that raises or
    decodes wrongly is counted as failed instead of ending the run.  The
    header is read first so that a corrupted symbol count cannot make the
    decoder run far past the payload.
    """
    try:
        header, _ = unpack_header(payload)
        if header.n != len(expected):
            tally.record(False, f"header announces {header.n} symbols, "
                                f"expected {len(expected)}")
            return 0
        t0 = perf_counter_ns()
        _, out = decode_stream(payload, search)
        elapsed = perf_counter_ns() - t0
    except Exception:  # a corrupted stream may raise anything; keep running
        tally.record(False, traceback.format_exc(limit=1).strip())
        return 0
    ok = out == expected
    tally.record(ok, None if ok else "decoded symbols differ from input")
    return elapsed


def chunks(w: Workload, cycle: bool = True):
    """Stream-index ranges, one per timed repetition; endless if ``cycle``."""
    while True:
        for lo in range(0, w.streams, w.chunk):
            yield range(lo, min(lo + w.chunk, w.streams))
        if not cycle:
            return


def setup(w: Workload, seed: int, tally: Tally):
    """Generate, encode and round-trip every stream (also the warm-up).

    Returns the streams, their payloads and the set-up's timing.  Set-up
    runs chunk by chunk with a reference run after each, so a set-up
    lasting seconds is normalised piece by piece; the reference runs are
    not part of the set-up time.
    """
    specs = w.gen_specs(seed)
    streams, payloads, timing = [], [], Paired()
    before = time_reference()
    for idx in chunks(w, cycle=False):
        t0 = perf_counter_ns()
        part = [gen_sequence(specs[j]).tolist() for j in idx]
        encoded = [encode_stream(s, w.k, w.config) for s in part]
        for p, s in zip(encoded, part):
            decode_checked(p, w.search, s, tally)
        elapsed = perf_counter_ns() - t0
        after = time_reference()
        timing.add(elapsed, (before + after) / 2)
        before = after
        streams += part
        payloads += encoded
    return streams, payloads, timing


def run_end_to_end(w: Workload, seed: int, seconds: float):
    """Untraced run; returns (metrics, tally, info)."""
    tally = Tally()
    setup_ns, setup_raw_ns = [], []
    for _ in range(SETUP_REPS):
        streams, payloads, timing = setup(w, seed, tally)
        setup_ns.append(sum(timing.normalised()))
        setup_raw_ns.append(sum(timing.raw))

    # each repetition is normalised by the mean of the reference runs just
    # before and just after it
    enc, dec, lat = Paired(), Paired(), []
    before = time_reference()
    deadline = monotonic() + seconds
    for idx in chunks(w):
        if monotonic() >= deadline and len(dec) >= MIN_REPS:
            break
        n_sym = sum(len(streams[j]) for j in idx)

        t0 = perf_counter_ns()
        outs = [encode_stream(streams[j], w.k, w.config) for j in idx]
        enc_ns = perf_counter_ns() - t0
        after = time_reference()
        enc.add(enc_ns / n_sym, (before + after) / 2)
        before = after
        for j, out in zip(idx, outs):
            tally.record(out == payloads[j], None if out == payloads[j]
                         else "encoded bytes differ from the reference encode")

        per_stream = [decode_checked(payloads[j], w.search, streams[j], tally)
                      for j in idx]
        after = time_reference()
        ref = (before + after) / 2
        dec.add(sum(per_stream) / n_sym, ref)
        lat.extend(t / ref * NOMINAL_REF_NS for t in per_stream)
        before = after

    symbols = sum(len(s) for s in streams)
    metrics = {
        "encode_ns_per_symbol": (enc.median(), "ns"),
        "decode_ns_per_symbol": (dec.median(), "ns"),
        "decode_stream_us.p50": (statistics.median(lat) / 1e3, "us"),
        "bits_per_symbol": (8 * sum(map(len, payloads)) / symbols,
                            "bits/symbol"),
        "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
    }
    info = {
        "raw_medians": {
            "encode_ns_per_symbol": enc.raw_median(),
            "decode_ns_per_symbol": dec.raw_median(),
            "setup_s": statistics.median(setup_raw_ns) / 1e9,
        },
        "reference_ns_median": statistics.median(enc.ref + dec.ref),
        "samples": {"encode_reps": len(enc), "decode_reps": len(dec),
                    "decode_streams": len(lat), "setup_reps": len(setup_ns)},
        "failed_stream_share": tally.failed / tally.attempted,
    }
    # p99 only where at least ten samples lie beyond it
    if len(lat) >= 1000:
        info["decode_stream_us.p99"] = (
            statistics.quantiles(lat, n=100)[98] / 1e3)
    return metrics, tally, info
