"""``scripts/pairs.py`` against two stub trees whose ``perfbench/run.py``
prints fixed metrics, so no real workload runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "pairs.py"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

# a stand-in for perfbench/run.py: decode reads BASE + seed, one stream
# fails for the seed given as FAIL_SEED, and every call is logged in order
# with the run length it was given
STUB = '''
import argparse, json, sys
from pathlib import Path
ap = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(name)
args = ap.parse_args()
here = Path(__file__).resolve().parent.parent
with open(here.parent / "order.log", "a") as log:
    log.write(f"{here.name} {args.workload} {args.seed} {args.seconds}\\n")
seed = int(args.seed)
failed = int(seed == FAIL_SEED)
print(json.dumps({"info": {"errors": ["stream differs"] * failed,
                           "commit": here.name}}))
print(json.dumps({"correct": not failed, "attempted": 4, "failed": failed,
                  "metrics": {
    "decode_ns_per_symbol": {"value": BASE + seed, "unit": "ns"},
    "bits_per_symbol": {"value": 2.5, "unit": "bits/symbol"}}}))
sys.exit(failed)
'''


def stub_tree(path: Path, base: float, fail_seed: int = -1) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(
        STUB.replace("BASE", repr(base)).replace("FAIL_SEED", str(fail_seed)))
    return path


def run(tmp_path, *args, env=None):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "parent"),
         str(tmp_path / "change"), "--out", str(out), *args],
        capture_output=True, text=True, timeout=120, env=env)
    return proc, (json.loads(out.read_text()) if out.exists() else None)


def test_pairs_alternate_and_summarise(tmp_path):
    stub_tree(tmp_path / "parent", 100.0)
    stub_tree(tmp_path / "change", 90.0)
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPYCACHEPREFIX"] = str(tmp_path / "pyc")
    proc, report = run(tmp_path, "--workload", "w1", "--workload", "w2",
                       "--pairs", "4", "--first-seed", "10", env=env)
    assert proc.returncode == 0, proc.stderr
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    seeds = (10, 11, 12, 13)
    assert order == [f"{side} {w} {s} {RUN_SECONDS}" for w in ("w1", "w2")
                     for i, s in enumerate(seeds)
                     for side in (("parent", "change") if i % 2 == 0
                                  else ("change", "parent"))]
    assert report["seconds"] == RUN_SECONDS
    assert report["bytecode"] == {"PYTHONDONTWRITEBYTECODE": False,
                                  "PYTHONPYCACHEPREFIX": True}
    assert report["seeds"] == list(seeds)
    assert report["commits"] == {"parent": "parent", "change": "change"}
    assert report["python"] and report["host"]["cpus"]
    for w in ("w1", "w2"):
        entry = report["workloads"][w]
        assert entry["failed"] == []
        dec = entry["metrics"]["decode_ns_per_symbol"]
        assert dec["unit"] == "ns"
        assert dec["parent"] == {"runs": [110, 111, 112, 113], "min": 110,
                                 "q1": 110.75, "median": 111.5, "q3": 112.25}
        assert dec["change"]["runs"] == [100, 101, 102, 103]
        assert (dec["wins"], dec["losses"]) == (4, 0)
        assert dec["median_change"] == -10
        assert dec["median_change_rel"] == pytest.approx(-10 / 111.5)
        assert dec["median_change_over_parent_iqr"] == pytest.approx(-10 / 1.5)
        bits = entry["metrics"]["bits_per_symbol"]
        assert (bits["wins"], bits["losses"], bits["median_change"]) == (0, 0, 0)
        assert bits["median_change_over_parent_iqr"] is None  # no spread


def test_failed_runs_are_reported_and_left_out(tmp_path):
    stub_tree(tmp_path / "parent", 100.0)
    stub_tree(tmp_path / "change", 90.0, fail_seed=2)
    proc, report = run(tmp_path, "--workload", "w", "--pairs", "3",
                       "--first-seed", "1")
    assert proc.returncode == 1
    entry = report["workloads"]["w"]
    assert entry["failed"] == [{"side": "change", "seed": 2, "returncode": 1,
                                "failed_streams": 1,
                                "errors": ["stream differs"]}]
    dec = entry["metrics"]["decode_ns_per_symbol"]
    assert dec["seeds"] == [1, 3]
    assert dec["parent"]["runs"] == [101, 103]
    assert dec["change"]["runs"] == [91, 93]


def test_tree_without_perfbench_is_refused(tmp_path):
    stub_tree(tmp_path / "parent", 100.0)
    (tmp_path / "change").mkdir()
    proc, report = run(tmp_path, "--workload", "w", "--pairs", "1")
    assert proc.returncode == 2 and report is None
    assert "no perfbench/run.py" in proc.stderr
