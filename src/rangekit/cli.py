"""Command-line front end: gen / encode / decode / bench / selftest."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from itertools import product

from . import _loops
from . import bench as _bench
from . import datagen
from . import search as _search
from .fenwick_model import RESCALES, FenwickModel, forward_step, parent_index
from .linear_model import LinearModel
from .rangecoder import (MAX_SYMBOLS, MODELS, MODES, CoderConfig,
                         decode_stream, encode_stream)

# Hand-checked reference tables for `selftest`: a 19-symbol count example
# with its hierarchical representation, the bit-trick table, and the
# 4-symbol lookup-table walkthrough.
REF_COUNTS_19 = (3, 2, 2, 1, 4, 1, 5, 2, 3, 1, 2, 3, 1, 4, 2, 1, 1, 3, 2)
REF_V_19 = (0, 3, 5, 2, 8, 4, 5, 5, 20, 3, 4, 2, 9, 1, 5, 2, 37, 1, 4, 2)
REF_HK_19 = (0, 3, 5, 7, 8, 12, 13, 18, 20, 23, 24, 26, 29, 30, 34, 36, 37,
             38, 41, 43)
REF_BIT_ROWS = (  # i, lowest set bit, parent index
    (1, 1, 0), (2, 2, 0), (3, 1, 2), (4, 4, 0), (5, 1, 4), (6, 2, 4),
    (7, 1, 6), (8, 8, 0), (9, 1, 8), (10, 2, 8), (11, 1, 10),
)
REF_TOY_COUNTS = (3, 2, 1, 4)
REF_TOY_TABLE = (0, 0, 0, 1, 1, 2, 3, 3, 3, 3)
REF_TOY_TABLE_AFTER = (0, 0, 0, 1, 1, 1, 2, 3, 3, 3, 3)
REF_TOY_WRITES = (5, 6, 10)


def _cmd_gen(args) -> int:
    dist = "geometric" if args.dist in ("geom", "geometric") else "flat"
    spec = datagen.GenSpec(dist, args.k, args.n, args.seed)
    datagen.write_symbols(args.output, args.k, datagen.gen_sequence(spec))
    return 0


def _cmd_encode(args) -> int:
    k, symbols = datagen.read_symbols(args.input)
    cfg = CoderConfig(args.mode, args.model, args.rescale, args.rescale_interval)
    payload = encode_stream(symbols, k, cfg)
    with open(args.output, "wb") as fh:
        fh.write(payload)
    return 0


def _cmd_decode(args) -> int:
    with open(args.input, "rb") as fh:
        payload = fh.read()
    header, symbols = decode_stream(payload, args.search, max_symbols=args.max_symbols)
    datagen.write_symbols(args.output, header.k, symbols)
    return 0


def _cmd_bench(args) -> int:
    # GridSpec holds the defaults; pass it only the options given
    given = {"modes": None if args.suite == "full" else (args.suite,),
             "n": args.n, "seed": args.seed, "timing_reps": args.reps}
    grid = _bench.GridSpec(**{k: v for k, v in given.items() if v is not None})
    # open the output before the first stream, so a bad path fails at once,
    # and remove it if the run fails, so no partial CSV is left behind
    to_file = args.csv != "-"
    out = (open(args.csv, "w", newline="") if to_file
           else contextlib.nullcontext(sys.stdout))
    try:
        with out as fh:
            _bench.write_csv(_bench.run_suite(grid), fh)
    except BaseException:
        if to_file:
            with contextlib.suppress(OSError):
                os.remove(args.csv)
        raise
    return 0


def _check(name: str, got, want, failures: list) -> None:
    ok = got == want
    print(f"{'ok' if ok else 'FAIL'}: {name}")
    if not ok:
        failures.append(f"{name}: got {got!r}, want {want!r}")


def _cmd_selftest(_args) -> int:
    failures: list[str] = []

    fm = FenwickModel(REF_COUNTS_19)
    _check("hierarchical array from 19-symbol counts", tuple(fm.v), REF_V_19, failures)
    _check("cumulative counts via chain sums",
           tuple(fm.cum(i) for i in range(20)), REF_HK_19, failures)
    _check("lowest-set-bit steps",
           tuple((i, forward_step(i), parent_index(i)) for i, _, _ in REF_BIT_ROWS),
           REF_BIT_ROWS, failures)

    table = _search.LookupTable.create(REF_TOY_COUNTS)
    _check("lookup table for counts (3,2,1,4)", tuple(table.t), REF_TOY_TABLE, failures)
    lm = LinearModel(list(REF_TOY_COUNTS))
    lm.update(1)
    before = list(table.t)
    table.update(lm.hk, 1)
    _check("table repair positions after bumping symbol 1",
           tuple(_search.changed_slots(before, table.t)), REF_TOY_WRITES,
           failures)
    _check("repaired table", tuple(table.t), REF_TOY_TABLE_AFTER, failures)

    # round trip smoke across modes and model families, through the
    # compiled loops when they loaded and through the Python loops
    compiled = _loops.lib()
    print("stream loops in use: " + ("compiled" if compiled else
          "python (the compiled loops did not build or load)"))
    data = [i % 7 for i in range(500)]
    try:
        for loops, lib in (("compiled", compiled), ("python", None)):
            if loops == "compiled" and lib is None:
                continue
            _loops._lib = lib
            for mode, model in product(MODES, MODELS):
                cfg = CoderConfig(mode, model, "orig", 128)  # static ignores 128
                _, out = decode_stream(encode_stream(data, 7, cfg))
                _check(f"{mode} round trip ({model}, {loops} loop)", out,
                       data, failures)
    finally:
        _loops._lib = compiled

    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("all selftests passed")
    return 0


def _symbol_limit(text: str) -> int:
    if not text.isdecimal():  # no sign: a negative limit is a usage error
        raise argparse.ArgumentTypeError(
            f"must be a whole number of at least 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rangekit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a deterministic symbol file")
    p.add_argument("--dist", choices=("flat", "geom", "geometric"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("encode", help="compress a symbol file")
    p.add_argument("--mode", choices=MODES, default="adaptive")
    p.add_argument("--model", choices=MODELS, default="linear")
    p.add_argument("--rescale", choices=RESCALES, default="orig")
    p.add_argument("--rescale-interval", type=int, default=0)
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decompress a stream")
    p.add_argument("--search", choices=_search.STRATEGIES, default=None,
                   help="check this strategy against the stream; the "
                   "decode's search depends on the stream alone")
    p.add_argument("--max-symbols", type=_symbol_limit, default=MAX_SYMBOLS,
                   help="reject a stream whose header claims more symbols")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("bench", help="run the benchmark grid, emit CSV")
    p.add_argument("--suite", choices=(*MODES, "full"), default="full")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--csv", default="-")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("selftest", help="verify the built-in reference fixtures")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
