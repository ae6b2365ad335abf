#!/usr/bin/env python3
"""Compare two source trees with alternating perfbench runs.

    python3 scripts/pairs.py PARENT CHANGE --pairs 10 --first-seed 32001 \\
        --out BENCH_name.json

PARENT and CHANGE are the roots of two rangekit checkouts.  For each
workload, pair i runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` in both trees, one process at a time, with seed
``first_seed + i`` on both sides; the parent runs first when i is even
and the change first when it is odd.  T is ``run_seconds`` of
``BENCHMARK.json`` beside this script, and the workloads are those of
``--workload``, or else every workload in that file.

The JSON written to ``--out`` (or printed) holds, per workload and
metric, each side's runs in seed order with their min, quartiles
(inclusive method) and median, and the pairs in which the change read
lower (``wins``) or higher (``losses``): every perfbench metric is
better lower.  ``median_change`` is the change's median minus the
parent's, ``median_change_rel`` that over the parent's median, and
``median_change_over_parent_iqr`` that over the parent's interquartile
range.  It also gives the host, the Python version, the commit each
side's perfbench reported (``unknown`` outside a git checkout), whether
the runs inherited ``PYTHONDONTWRITEBYTECODE`` and ``PYTHONPYCACHEPREFIX``
(which decide whether each run compiles the imported sources afresh),
the seeds and every run that failed: a nonzero exit, output that is not
perfbench's, or streams that did not round-trip.  A failed run adds no
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``tree``: its last output line, parsed, plus
    the exit status and the earlier lines' run errors and commit."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        return {"returncode": proc.returncode, "failed": None,
                "errors": [proc.stderr.strip()[-500:] or "no result line"]}
    result.update(returncode=proc.returncode, errors=[], commit=None)
    for line in lines[:-1]:
        try:
            info = json.loads(line).get("info", {})
            result["errors"] += info.get("errors", [])
            result["commit"] = info.get("commit", result["commit"])
        except (ValueError, AttributeError, TypeError):
            pass
    return result


def summary(runs: list[float]) -> dict:
    """``runs`` with their min, quartiles and median."""
    if len(runs) > 1:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = median = q3 = runs[0]
    return {"runs": runs, "min": min(runs), "q1": q1, "median": median,
            "q3": q3}


def compare(parent: list[float], change: list[float]) -> dict:
    """The two sides of one metric over the pairs both sides completed."""
    p, c = summary(parent), summary(change)
    gap = c["median"] - p["median"]
    iqr = p["q3"] - p["q1"]
    return {
        "parent": p, "change": c,
        "wins": sum(b < a for a, b in zip(parent, change)),
        "losses": sum(b > a for a, b in zip(parent, change)),
        "median_change": gap,
        "median_change_rel": gap / p["median"] if p["median"] else None,
        "median_change_over_parent_iqr": gap / iqr if iqr else None,
    }


def run_pairs(trees: dict, workloads: list[str], seeds: list[int],
              seconds: float, log=None) -> tuple[dict, dict]:
    """Run the pairs; returns the ``workloads`` part of the report and
    the commit each side's runs reported."""
    report, commits = {}, {}
    for workload in workloads:
        values = {side: {} for side in SIDES}  # metric -> seed -> value
        units, failed = {}, []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            results = {side: run_once(trees[side], workload, seed, seconds)
                       for side in order}
            status = []
            for side in order:
                res = results[side]
                commits.setdefault(side, res.get("commit"))
                ok = res["returncode"] == 0 and res["failed"] == 0
                status.append(f"{side} {'ok' if ok else 'FAILED'}")
                if not ok:
                    failed.append({"side": side, "seed": seed,
                                   "returncode": res["returncode"],
                                   "failed_streams": res["failed"],
                                   "errors": res["errors"]})
                    continue
                for name, metric in res["metrics"].items():
                    values[side].setdefault(name, {})[seed] = metric["value"]
                    units[name] = metric["unit"]
            if log:
                log(f"{workload} seed {seed}: {' '.join(status)}")
        metrics = {}
        for name in sorted(units):
            both = [s for s in seeds
                    if s in values["parent"].get(name, {})
                    and s in values["change"].get(name, {})]
            if both:
                metrics[name] = {"unit": units[name], "seeds": both, **compare(
                    [values["parent"][name][s] for s in both],
                    [values["change"][name][s] for s in both])}
        report[workload] = {"metrics": metrics, "failed": failed}
    return report, commits


def host() -> dict:
    """What the runs ran on, without naming the machine."""
    info = {"platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count()}
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        usable = None
    info["usable_cpus"] = usable
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--workload", action="append", dest="workloads",
                    help="a workload to run (repeatable); default: every "
                         "workload in BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, help="write the JSON here, not to stdout")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.first_seed < 0:
        ap.error("--pairs must be >= 1 and --first-seed >= 0")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error(f"{side} tree {tree} has no perfbench/run.py")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    results, commits = run_pairs(trees, workloads, seeds, bench["run_seconds"],
                                 log=lambda msg: print(msg, file=sys.stderr))
    report = {
        "method": "perfbench/run.py --trace 0 in each tree, one process at a "
                  "time; pair i runs seed first_seed + i on both sides, the "
                  "parent first when i is even",
        "host": host(), "python": platform.python_version(),
        "bytecode": {name: bool(os.environ.get(name)) for name in
                     ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")},
        "commits": commits, "seconds": bench["run_seconds"], "seeds": seeds,
        "workloads": results,
    }
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0 if not any(w["failed"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
