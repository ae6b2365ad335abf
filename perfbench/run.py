"""Run one rangekit benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload static-k64 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; rangekit is imported from its
``src`` directory, never from an installed copy.  ``--trace 0`` measures
the end-to-end metrics untraced, ``--trace 1`` the per-layer metrics of
the traced loop.  Earlier stdout lines carry informative fields (run
metadata, raw medians, sample counts); the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 0 only when every stream round-tripped.  One workload
runs per process, on one thread, so peak memory belongs to that workload.
"""

from __future__ import annotations

import os

# numpy must not start worker threads; set before it is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_rangekit():
    """Put the checkout's src first on the path; exit 2 if it has none."""
    if not (SRC / "rangekit" / "__init__.py").is_file():
        sys.exit(f"run.py: no rangekit sources under {SRC}; run from the root "
                 "of a rangekit checkout")
    sys.path.insert(0, str(SRC))
    import rangekit
    if Path(rangekit.__file__).resolve().parent != SRC / "rangekit":
        sys.exit(f"run.py: imported rangekit from {rangekit.__file__}, "
                 f"not from {SRC}")


def _commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metadata(args) -> dict:
    import numpy
    from reference import NOMINAL_REF_NS
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "nominal_reference_ns": NOMINAL_REF_NS,
    }


def main(argv=None) -> int:
    _import_rangekit()
    from workloads import WORKLOADS, run_end_to_end
    from tracing import run_traced

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    w = WORKLOADS[args.workload]
    if args.trace:
        metrics, tally, info = run_traced(w, args.seed, args.seconds, ROOT)
    else:
        metrics, tally, info = run_end_to_end(w, args.seed, args.seconds)
        metrics["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    if threading.active_count() != 1:
        sys.exit("run.py: the run started threads; it must stay single-threaded")

    info.update(_metadata(args))
    info["errors"] = tally.errors
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
