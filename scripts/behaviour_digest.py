#!/usr/bin/env python3
"""Print digests of what the coder does over a grid of configurations.

A change that claims to keep behaviour must leave three things alone: the
IRC1 bytes, the decoded symbols and every ``DecodeStats`` counter.  For
each (data, K, mode, model, rescale, interval) cell this encodes one
stream and decodes it with every compatible strategy, and hashes the
payload, the decoded symbols and every field of the decode's
``DecodeStats`` into the cell's SHA-256 digest.  The data is flat and
truncated geometric, the stream of alphabet K is generated from seed K,
and an adaptive stream rescales every 0 (at the cap only), 1, 7 or 500
symbols.

The grid runs at the default count cap, and again, adaptive streams only,
with ``MAX_TOTALCOUNT`` lowered to ``--cap`` in both models, so that
rescales at the cap are covered as well.  Prints JSON: per cap, the number
of decodes, one digest per (mode, model, rescale) and one of the whole
grid.  Two source trees behave the same on the grid when they print the
same JSON:

    PYTHONPATH=src python scripts/behaviour_digest.py > digest.json

The defaults (3000 symbols, eleven alphabet sizes up to 1000, 2816
decodes) take about two minutes; ``--n 64 --k 1 5 33`` takes about a
second.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import json
import sys
from array import array
from unittest import mock

from rangekit import fenwick_model, linear_model
from rangekit.datagen import GenSpec, gen_sequence
from rangekit.rangecoder import (
    CoderConfig, DecodeStats, decode_stream, encode_stream,
)
from rangekit.search import STRATEGIES, strategy_compatible

DISTRIBUTIONS = ("flat", "geometric")
INTERVALS = (0, 1, 7, 500)
CELLS = tuple((mode, model, rescale)
              for mode in ("static", "adaptive")
              for model in ("linear", "fenwick")
              for rescale in ("orig", "new"))


def lowered_cap(cap: int) -> contextlib.ExitStack:
    """Context in which both models rescale once their total reaches ``cap``."""
    stack = contextlib.ExitStack()
    for module in (linear_model, fenwick_model):
        stack.enter_context(mock.patch.object(module, "MAX_TOTALCOUNT", cap))
    return stack


def stats_fields(stats: DecodeStats) -> dict:
    """Every field of ``stats``; the histogram as sorted pairs, so its
    digest does not depend on the order the counts were added in."""
    out = {}
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        out[f.name] = sorted(value.items()) if isinstance(value, dict) else value
    return out


def cell_digests(data, k, mode, model, rescale, interval):
    """Digest of each compatible strategy's decode of one encoded stream."""
    payload = encode_stream(data, k, CoderConfig(mode, model, rescale, interval))
    for strategy in STRATEGIES:
        if strategy_compatible(strategy, model, mode) is not None:
            continue
        stats = DecodeStats()
        _, out = decode_stream(payload, strategy, stats)
        h = hashlib.sha256(payload)
        h.update(array("I", out).tobytes())
        h.update(json.dumps(stats_fields(stats)).encode())
        yield h.hexdigest()


def grid_digest(args, adaptive_only: bool) -> dict:
    groups = {cell: hashlib.sha256() for cell in CELLS
              if not adaptive_only or cell[0] == "adaptive"}
    whole = hashlib.sha256()
    decodes = 0
    for dist in DISTRIBUTIONS:
        for k in args.k:
            data = gen_sequence(GenSpec(dist, k, args.n, k)).tolist()
            for (mode, model, rescale), group in groups.items():
                for interval in INTERVALS if mode == "adaptive" else (0,):
                    for digest in cell_digests(data, k, mode, model, rescale, interval):
                        group.update(digest.encode())
                        whole.update(digest.encode())
                        decodes += 1
    return {"decodes": decodes, "digest": whole.hexdigest(),
            "cells": {"-".join(cell): h.hexdigest() for cell, h in groups.items()}}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=3000, help="symbols per stream")
    ap.add_argument("--k", type=int, nargs="+",
                    default=[1, 2, 5, 31, 32, 33, 63, 64, 65, 256, 1000],
                    help="alphabet sizes")
    ap.add_argument("--cap", type=int, default=2048,
                    help="lowered count cap, at least the largest --k")
    args = ap.parse_args()
    if args.n < 1:
        sys.exit("error: --n must be at least 1")
    if not max(args.k) <= args.cap <= linear_model.MAX_TOTALCOUNT:
        sys.exit(f"error: --cap must be in [{max(args.k)}, "
                 f"{linear_model.MAX_TOTALCOUNT}]")

    try:
        default = grid_digest(args, adaptive_only=False)
        with lowered_cap(args.cap):
            lowered = grid_digest(args, adaptive_only=True)
    except ValueError as exc:
        sys.exit(f"error: {exc}")
    report = {"n": args.n, "k": args.k, "intervals": list(INTERVALS),
              "default_cap": default, f"cap_{args.cap}": lowered}
    json.dump(report, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
