"""Traced mirror of ``encode_stream``/``decode_stream`` for per-layer metrics.

The loops below repeat the stream drivers step for step, but build the
models through the public ``LinearModel``/``FenwickModel`` constructors
and read the clock around each public call, so the time of every layer
is measured where its work happens.  Spans are flat (no span encloses
another), so a span's self time is its duration.  Per name only the
summed duration and the number of clock intervals are kept, in memory.

Each interval also holds the cost of one clock read; that cost is
calibrated as an empty span and subtracted.
"""

from __future__ import annotations

import os
import statistics
import tempfile
from dataclasses import dataclass
from time import monotonic, perf_counter_ns as clock

from rangekit.datagen import gen_sequence, read_symbols, write_symbols
from rangekit.fenwick_model import FenwickModel
from rangekit.linear_model import LinearModel
from rangekit.rangecoder import (
    CoderConfig, DecodeStats, Decoder, Encoder, StreamHeader, decode_stream,
    encode_stream, normalize_counts, pack_header, strategy_compatible,
    unpack_header,
)
from rangekit.search import (
    LookupTable, binary_indexed, build_search_tree, determine_initial_split,
    exponential, linear_backward, linear_forward, log2_search, logarithmic,
    tree_search,
)

from workloads import RESCALE_INTERVAL, Tally, Workload, chunks, setup

# span names; the model spans are reported under the model's module name
HEADER = "rangecoder.header"
ENCODE = "rangecoder.encode"
DECODE = "rangecoder.decode"
SEARCH = "search"
SEARCH_SETUP = "search.setup"
TABLE_UPDATE = "search.table.update"
TABLE_REBUILD = "search.table.rebuild"
QUERY = "model.query"
UPDATE = "model.update"
RESCALE = "model.rescale"

#: Boundary-array searches timed by replaying captured code values.
REPLAY_STRATEGIES = ("lin-fwd", "lin-bwd", "log", "log2", "exp", "tree",
                     "table")
#: Symbols of the workload used by replays and companion passes.
PREFIX_SYMBOLS = 4096

#: Adaptive configurations run on the workload's own symbols to measure
#: the layers its configuration does not call.
COMPANIONS = (
    (CoderConfig("adaptive", "linear", "orig", RESCALE_INTERVAL), "table"),
    (CoderConfig("adaptive", "fenwick", "new", RESCALE_INTERVAL), "bi"),
)


class Spans:
    """Summed span time and interval count per span name."""

    __slots__ = ("ns", "intervals", "calls")

    def __init__(self):
        self.ns: dict[str, int] = {}
        self.intervals: dict[str, int] = {}
        self.calls: dict[str, int] = {}

    def add(self, name: str, ns: int, intervals: int = 1) -> None:
        self.ns[name] = self.ns.get(name, 0) + ns
        self.intervals[name] = self.intervals.get(name, 0) + intervals
        self.calls[name] = self.calls.get(name, 0) + 1

    def per_call_ns(self, name: str, empty_ns: float) -> float:
        """Mean self time of one call, less the clock cost of its intervals."""
        return ((self.ns[name] - self.intervals[name] * empty_ns)
                / self.calls[name])


def calibrate_empty_span(samples: int = 20000) -> float:
    """Cost of one clock interval that encloses no work, in ns.

    The mean of the middle half of the samples: robust to interrupts, and
    finer than the clock's tick, which a plain median would snap to.
    """
    d = []
    for _ in range(samples):
        t0 = clock()
        t1 = clock()
        d.append(t1 - t0)
    d.sort()
    return statistics.fmean(d[samples // 4: 3 * samples // 4])


@dataclass
class Counters:
    """Deterministic work counts of the decode side, as DecodeStats has them."""
    streams: int = 0
    symbols: int = 0
    search_iterations: int = 0
    query_accesses: int = 0
    update_accesses: int = 0
    rescale_accesses: int = 0
    rescale_events: int = 0
    table_rebuilds: int = 0


def _new_model(header, counts):
    adaptive = header.mode == "adaptive"
    if header.model == "fenwick":
        return FenwickModel(counts, adaptive=adaptive,
                            rescale_variant=header.rescale)
    return LinearModel(counts, adaptive=adaptive)


def _adapt(model, sym: int, pos: int, interval: int, spans: Spans) -> bool:
    """Model update plus the periodic rescale; True if a rescale ran."""
    t0 = clock()
    rescaled = model.update(sym)
    t1 = clock()
    spans.add(UPDATE, t1 - t0)
    if interval and (pos + 1) % interval == 0:
        t0 = clock()
        model.rescale()
        t1 = clock()
        spans.add(RESCALE, t1 - t0)
        rescaled = True
    return rescaled


def traced_encode(symbols: list[int], k: int, config: CoderConfig,
                  spans: Spans) -> bytes:
    """Mirror of encode_stream with one span per public call."""
    n = len(symbols)
    adaptive = config.mode == "adaptive"
    counts = None
    if not adaptive:
        raw = [0] * k
        for s in symbols:
            raw[s] += 1
        counts = normalize_counts(raw)
    header = StreamHeader(config.mode, config.model, config.rescale,
                          config.rescale_interval if adaptive else 0,
                          k, n, tuple(counts) if counts is not None else None)
    t0 = clock()
    head = pack_header(header)
    t1 = clock()
    spans.add(HEADER, t1 - t0)
    enc = Encoder()
    if n:
        model = _new_model(header, counts if counts is not None else [1] * k)
        interval = header.rescale_interval
        for pos, s in enumerate(symbols):
            if not 0 <= s < k:
                raise ValueError(f"symbol {s} outside alphabet of size {k}")
            t0 = clock()
            low = model.cum(s)
            freq = model.count(s)
            t1 = clock()
            enc.encode(low, freq, model.total_count)
            t2 = clock()
            spans.add(QUERY, t1 - t0)
            spans.add(ENCODE, t2 - t1)
            if adaptive:
                _adapt(model, s, pos, interval, spans)
    return head + enc.finish()


def traced_decode(payload: bytes, strategy: str, spans: Spans,
                  counters: Counters) -> list[int]:
    """Mirror of decode_stream for the log, tree, table and bi searches."""
    t0 = clock()
    header, offset = unpack_header(payload)
    t1 = clock()
    spans.add(HEADER, t1 - t0)
    reason = strategy_compatible(strategy, header.model, header.mode)
    if reason is not None:
        raise ValueError(reason)
    if strategy not in ("log", "tree", "table", "bi"):
        raise ValueError(f"traced decode does not mirror {strategy!r}")
    counters.streams += 1
    symbols: list[int] = []
    if header.n == 0:
        return symbols
    dec = Decoder(payload[offset:])
    k = header.k
    model = _new_model(header, list(header.counts) if header.counts
                       else [1] * k)
    interval = header.rescale_interval
    adaptive = header.mode == "adaptive"
    fenwick = header.model == "fenwick"

    table = tree = None
    t0 = clock()
    if strategy == "table":
        table = LookupTable.create([model.count(i) for i in range(k)])
    elif strategy == "tree":
        tree = build_search_tree(model.hk)
    t1 = clock()
    if table is not None or tree is not None:
        spans.add(SEARCH_SETUP, t1 - t0)

    iterations = 0
    for pos in range(header.n):
        total = model.total_count
        t0 = clock()
        c = dec.decode_target(total)
        t1 = clock()
        if fenwick:
            sym, low, iters = binary_indexed(c, model)
            t2 = clock()
            freq = model.count(sym)
            t3 = clock()
            spans.add(QUERY, t3 - t2)
        else:
            if tree is not None:
                sym, iters = tree_search(c, model.hk, tree)
            elif table is not None:
                sym = table.lookup(c)
                iters = 1
            else:
                sym, iters = logarithmic(c, model.hk)
            t2 = clock()
            low = model.hk[sym]
            freq = model.h[sym]
            t3 = clock()
        dec.consume(low, freq)
        t4 = clock()
        spans.add(DECODE, (t1 - t0) + (t4 - t3), intervals=2)
        spans.add(SEARCH, t2 - t1)
        symbols.append(sym)
        iterations += iters
        if adaptive:
            rescaled = _adapt(model, sym, pos, interval, spans)
            if rescaled:
                counters.rescale_events += 1
            if table is not None:
                if rescaled:
                    t0 = clock()
                    table = LookupTable.create(
                        [model.count(i) for i in range(k)])
                    t1 = clock()
                    spans.add(TABLE_REBUILD, t1 - t0)
                    counters.table_rebuilds += 1
                else:
                    t0 = clock()
                    table.update(model.hk, sym)
                    t1 = clock()
                    spans.add(TABLE_UPDATE, t1 - t0)
    counters.symbols += header.n
    counters.search_iterations += iterations
    counters.query_accesses += getattr(model, "query_accesses", 0)
    counters.update_accesses += model.update_accesses
    counters.rescale_accesses += model.rescale_accesses
    return symbols


def check_against_untraced(streams, k, config, strategy, tally: Tally):
    """Run one traced pass and check it against encode_stream/decode_stream.

    Payloads and decoded symbols must be identical stream by stream, and
    the decode counters identical to the summed DecodeStats.  Returns the
    traced pass's counters.
    """
    counters = Counters()
    expected = Counters()
    for s in streams:
        payload = traced_encode(s, k, config, Spans())
        out = traced_decode(payload, strategy, Spans(), counters)
        stats = DecodeStats()
        ref_payload = encode_stream(s, k, config)
        _, ref_out = decode_stream(ref_payload, strategy, stats)
        expected.search_iterations += stats.search_iterations
        expected.update_accesses += stats.update_accesses
        expected.rescale_accesses += stats.rescale_accesses
        ok = payload == ref_payload and out == ref_out == s
        tally.record(ok, None if ok else
                     "traced loop output differs from encode/decode_stream")
    ok = all(getattr(counters, f) == getattr(expected, f)
             for f in ("search_iterations", "update_accesses",
                       "rescale_accesses"))
    tally.record(ok, None if ok else
                 "traced counters differ from DecodeStats")
    return counters


def prefix_streams(streams, limit: int = PREFIX_SYMBOLS):
    """Leading streams, the last one cut short, holding ``limit`` symbols at most."""
    out, left = [], limit
    for s in streams:
        if left <= 0:
            break
        out.append(s[:left])
        left -= len(out[-1])
    return out


@dataclass
class Capture:
    """Decoder code values of one static stream, replayable by any search."""
    hk: list
    counts: list
    code_values: list
    symbols: list


def capture(sequence, k: int) -> Capture:
    """Code values a static decode sees, as bench.iteration_histogram captures them."""
    counts = [0] * k
    for s in sequence:
        counts[s] += 1
    model = LinearModel(counts, adaptive=False)
    hk, total = model.hk, model.total_count
    enc = Encoder()
    for s in sequence:
        enc.encode(hk[s], model.h[s], total)
    dec = Decoder(enc.finish())
    code_values = []
    for s in sequence:
        c = dec.decode_target(total)
        dec.consume(hk[s], model.h[s])
        code_values.append(c)
    return Capture(hk, counts, code_values, list(sequence))


def _replay_search(strategy: str, cap: Capture):
    """Search function of the code value, its set-up already done."""
    hk = cap.hk
    if strategy == "tree":
        tree = build_search_tree(hk)
        return lambda c: tree_search(c, hk, tree)
    if strategy == "table":
        table = LookupTable.create(cap.counts)
        return lambda c: (table.lookup(c), 1)
    if strategy == "log2":
        i_mid = determine_initial_split(hk)
        return lambda c: log2_search(c, hk, i_mid)
    fn = {"lin-fwd": linear_forward, "lin-bwd": linear_backward,
          "log": logarithmic, "exp": exponential}[strategy]
    return lambda c: fn(c, hk)


def replay(strategy: str, cap: Capture, check: bool = False):
    """Time one strategy over captured code values; returns (ns, iterations)."""
    find = _replay_search(strategy, cap)
    if check and [find(c)[0] for c in cap.code_values] != cap.symbols:
        raise AssertionError(f"replayed {strategy} search found wrong symbols")
    iters = 0
    t0 = clock()
    for c in cap.code_values:
        iters += find(c)[1]
    return clock() - t0, iters


def _model_metrics(prefix, spans, counters, empty, adaptive):
    if not adaptive:
        return {}
    per_sym = max(1, counters.symbols)
    m = {
        f"{prefix}.update_ns": (spans.per_call_ns(UPDATE, empty), "ns"),
        f"{prefix}.update_accesses": (counters.update_accesses / per_sym,
                                      "accesses/symbol"),
        f"{prefix}.rescale_events": (counters.rescale_events, "count"),
        f"{prefix}.rescale_accesses": (counters.rescale_accesses, "count"),
    }
    if RESCALE in spans.calls:
        m[f"{prefix}.rescale_us"] = (spans.per_call_ns(RESCALE, empty) / 1e3,
                                     "us")
    return m


def layer_metrics(config, strategy, spans, counters, empty):
    """Per-layer metrics of one configuration's spans and counts."""
    adaptive = config.mode == "adaptive"
    per_sym = max(1, counters.symbols)
    m = {
        "rangecoder.encode_ns": (spans.per_call_ns(ENCODE, empty), "ns"),
        "rangecoder.decode_ns": (spans.per_call_ns(DECODE, empty), "ns"),
        "rangecoder.header_us": (
            2 * spans.per_call_ns(HEADER, empty) / 1e3, "us"),
        "search.ns": (spans.per_call_ns(SEARCH, empty), "ns"),
        "search.iters": (counters.search_iterations / per_sym,
                         "iters/symbol"),
    }
    if SEARCH_SETUP in spans.calls:
        m["search.setup_us"] = (spans.per_call_ns(SEARCH_SETUP, empty) / 1e3,
                                "us")
    if strategy == "table" and adaptive:
        m["search.table.update_ns"] = (
            spans.per_call_ns(TABLE_UPDATE, empty), "ns")
        m["search.table.rebuilds"] = (counters.table_rebuilds, "count")
        if TABLE_REBUILD in spans.calls:
            m["search.table.rebuild_us"] = (
                spans.per_call_ns(TABLE_REBUILD, empty) / 1e3, "us")
    if config.model == "fenwick":
        m["fenwick_model.query_ns"] = (spans.per_call_ns(QUERY, empty), "ns")
        m["fenwick_model.query_accesses"] = (
            counters.query_accesses / per_sym, "accesses/symbol")
        m.update(_model_metrics("fenwick_model", spans, counters, empty,
                                adaptive))
    else:
        m.update(_model_metrics("linear_model", spans, counters, empty,
                                adaptive))
    return m


class TracedConfig:
    """One traced configuration: its streams, spans and counts."""

    def __init__(self, streams, k, config, strategy, tally):
        self.streams, self.k = streams, k
        self.config, self.strategy = config, strategy
        self.spans = Spans()
        self.counters = check_against_untraced(streams, k, config, strategy,
                                               tally)

    def run(self, idx=None):
        """Traced encode then decode of the streams (or those in ``idx``)."""
        streams = self.streams if idx is None else [self.streams[j]
                                                    for j in idx]
        payloads = [traced_encode(s, self.k, self.config, self.spans)
                    for s in streams]
        outs = [traced_decode(p, self.strategy, self.spans, Counters())
                for p in payloads]
        return streams, outs


def run_traced(w: Workload, seed: int, seconds: float, root):
    """Traced run; returns (metrics, tally, info).

    Rounds repeat until the deadline.  Each round runs one chunk of the
    workload traced and then untraced (their difference is the tracing
    overhead), one pass of each companion configuration, one replay of
    every boundary-array search and the data-generation layer.
    """
    tally = Tally()
    streams, _, _ = setup(w, seed, tally)
    empty = calibrate_empty_span()
    main = TracedConfig(streams, w.k, w.config, w.search, tally)
    prefix = prefix_streams(streams)
    # one stream, so that the companions cross their periodic rescales
    joined = [[s for seq in prefix for s in seq]]
    companions = [TracedConfig(joined, w.k, cfg, strategy, tally)
                  for cfg, strategy in COMPANIONS
                  if (cfg.model, strategy) != (w.config.model, w.search)]
    captures = [capture(s, w.k) for s in prefix]
    for strategy in REPLAY_STRATEGIES:
        for cap in captures:
            replay(strategy, cap, check=True)

    replay_ns = dict.fromkeys(REPLAY_STRATEGIES, 0)
    replay_iters = dict.fromkeys(REPLAY_STRATEGIES, 0)
    replay_searches = 0
    overhead, gen_ns, io_ns, data_symbols = [], 0, 0, 0
    specs = w.gen_specs(seed)
    deadline = monotonic() + seconds
    rounds = 0
    with tempfile.TemporaryDirectory(prefix="perfbench-tmp-",
                                     dir=root) as tmp:
        isy = os.path.join(tmp, "chunk.isy")
        for idx in chunks(w):
            if monotonic() >= deadline and rounds >= 2:
                break
            rounds += 1
            n_sym = sum(len(streams[j]) for j in idx)
            t0 = clock()
            chunk, outs = main.run(idx)
            t1 = clock()
            plain = [decode_stream(encode_stream(s, w.k, w.config),
                                   w.search)[1] for s in chunk]
            t2 = clock()
            overhead.append(((t1 - t0) - (t2 - t1)) / n_sym)
            for s, o, p in zip(chunk, outs, plain):
                tally.record(o == p == s, None if o == p == s
                             else "round trip differs from input")

            for comp in companions:
                comp_streams, comp_outs = comp.run()
                tally.record(comp_outs == comp_streams)

            for strategy in REPLAY_STRATEGIES:
                for cap in captures:
                    ns, iters = replay(strategy, cap)
                    replay_ns[strategy] += ns
                    replay_iters[strategy] += iters
            replay_searches += sum(len(c.code_values) for c in captures)

            for j in idx:
                t0 = clock()
                seq = gen_sequence(specs[j])
                t1 = clock()
                write_symbols(isy, w.k, seq)
                _, back = read_symbols(isy)
                t2 = clock()
                tally.record(bool((back == seq).all()))
                gen_ns += t1 - t0
                io_ns += t2 - t1
                data_symbols += len(seq)

    metrics = layer_metrics(w.config, w.search, main.spans, main.counters,
                            empty)
    from_companions = []
    for comp in companions:
        for name, value in layer_metrics(comp.config, comp.strategy,
                                         comp.spans, comp.counters,
                                         empty).items():
            if name not in metrics:
                metrics[name] = value
                from_companions.append(name)
    for strategy in REPLAY_STRATEGIES:
        metrics[f"search.replay.{strategy}.ns"] = (
            replay_ns[strategy] / replay_searches, "ns")
        metrics[f"search.replay.{strategy}.iters"] = (
            replay_iters[strategy] / replay_searches, "iters/search")
    metrics["datagen.gen_ns_per_symbol"] = (gen_ns / data_symbols, "ns")
    metrics["datagen.isy_io_ns_per_symbol"] = (io_ns / data_symbols, "ns")
    metrics["trace.span_ns"] = (empty, "ns")
    metrics["trace.overhead_ns_per_symbol"] = (statistics.median(overhead),
                                               "ns")
    info = {
        "rounds": rounds,
        "from_companion_passes": sorted(from_companions),
        "companion_symbols": sum(map(len, prefix)),
        "replay_searches_per_strategy": replay_searches,
        "main_pass": vars(main.counters),
    }
    return metrics, tally, info
