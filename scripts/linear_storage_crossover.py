#!/usr/bin/env python3
"""Measure where an adaptive LinearModel's array storage beats its list.

``linear_model._ARRAY_MIN_K`` is the smallest alphabet whose adaptive
model keeps ``hk`` as an ``array('q')`` (a numpy add per update) rather
than a list (an interpreted loop per update, cheaper reads).  It tunes
the Python stream loops, the reference and the fallback where the
compiled loops did not load; the compiled loops copy the counts into
arrays of their own.  So this script turns the compiled loops off, by
setting ``rangekit._loops._lib`` to None, and measures the Python loops.
For each (data, search, K) cell it codes one adaptive linear stream
through ``encode_stream``/``decode_stream`` with each storage, forced by
patching ``_ARRAY_MIN_K``, back to back in alternating order, ``--reps``
times.
Flat data is coded with ``table``, geometric data with ``log``; the
stream rescales every 1024 symbols, and the stream of alphabet K is
generated from seed 777 + K.

Prints JSON: per cell and storage the min wall-clock ns/symbol of encode
and decode, and the array/list ratio of encode plus decode time, as the
ratio of the two mins and as the median of the per-repetition ratios.
Timings are wall clock and not drift-normalised, so run it on a quiet
machine and compare ratios, not absolute figures, across hosts.
"""

import argparse
import json
import platform
import statistics
import sys
import time
from unittest import mock

import numpy as np

from rangekit import _loops, linear_model
from rangekit.datagen import GenSpec, gen_sequence
from rangekit.rangecoder import CoderConfig, decode_stream, encode_stream

CELLS = (("flat", "table"), ("geometric", "log"))
INTERVAL = 1024
SEED = 777
FLOORS = {"list": float("inf"), "array": 1}


def time_storage(storage, data, k, cfg, strategy):
    """(encode ns, decode ns) of one stream coded by the Python loops with
    ``storage``."""
    with mock.patch.object(_loops, "_lib", None), \
            mock.patch.object(linear_model, "_ARRAY_MIN_K", FLOORS[storage]):
        t0 = time.perf_counter_ns()
        payload = encode_stream(data, k, cfg)
        t1 = time.perf_counter_ns()
        _, out = decode_stream(payload, strategy)
        t2 = time.perf_counter_ns()
    if out != data:
        raise RuntimeError(f"{storage} storage decoded K={k} wrongly")
    return t1 - t0, t2 - t1


def measure_cell(dist, strategy, k, args):
    data = gen_sequence(GenSpec(dist, k, args.n, SEED + k)).tolist()
    cfg = CoderConfig("adaptive", "linear", "orig", INTERVAL)
    runs = {"list": [], "array": []}
    for rep in range(args.reps):
        order = ("list", "array") if rep % 2 == 0 else ("array", "list")
        for storage in order:
            runs[storage].append(time_storage(storage, data, k, cfg, strategy))
    cell = {storage: {"encode": round(min(e for e, _ in r) / args.n),
                      "decode": round(min(d for _, d in r) / args.n)}
            for storage, r in runs.items()}
    totals = {storage: [e + d for e, d in r] for storage, r in runs.items()}
    cell["array_over_list"] = {
        "min": round(min(totals["array"]) / min(totals["list"]), 3),
        "median": round(statistics.median(
            a / b for a, b in zip(totals["array"], totals["list"])), 3),
    }
    return cell


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--k", type=int, nargs="+", default=[8, 16, 24, 32, 48, 64])
    ap.add_argument("--n", type=int, default=8192)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()
    if args.n < 1 or args.reps < 1:
        sys.exit("error: --n and --reps must be at least 1")

    try:
        cells = {f"{dist}/{strategy}/K={k}": measure_cell(dist, strategy, k, args)
                 for dist, strategy in CELLS for k in args.k}
    except ValueError as exc:
        sys.exit(f"error: {exc}")
    report = {
        "n": args.n, "interval": INTERVAL, "reps": args.reps,
        "seed": SEED, "array_min_k": linear_model._ARRAY_MIN_K,
        "python": platform.python_version(), "numpy": np.__version__,
        "cells": cells,
    }
    json.dump(report, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
