"""Self-tests of the benchmark, at small sizes.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from rangekit.bench import run_cell  # noqa: E402
from rangekit.datagen import gen_sequence  # noqa: E402
from rangekit.rangecoder import (  # noqa: E402
    DecodeStats, StreamFormatError, decode_stream, encode_stream,
)

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Tally, decode_checked, run_end_to_end,
)

SEED = 5
NAMES = sorted(WORKLOADS)


def make_streams(w, seed):
    return [gen_sequence(spec).tolist() for spec in w.gen_specs(seed)]


def small(name):
    """The workload at test size; adaptive streams still cross two rescales."""
    w = WORKLOADS[name]
    n = (2 * workloads.RESCALE_INTERVAL + 300 if w.config.mode == "adaptive"
         else min(w.symbols_per_stream, 1500))
    return replace(w, symbols_per_stream=n, streams=min(w.streams, 3),
                   chunk=min(w.chunk, 2))


@pytest.mark.parametrize("name", NAMES)
def test_traced_loop_matches_stream_drivers(name):
    w = small(name)
    for s in make_streams(w, SEED):
        payload = tracing.traced_encode(s, w.k, w.config, tracing.Spans())
        assert payload == encode_stream(s, w.k, w.config)
        stats = DecodeStats()
        _, expected = decode_stream(payload, w.search, stats)
        counters = tracing.Counters()
        out = tracing.traced_decode(payload, w.search, tracing.Spans(),
                                    counters)
        assert out == expected == s
        assert counters.search_iterations == stats.search_iterations
        assert counters.update_accesses == stats.update_accesses
        assert counters.rescale_accesses == stats.rescale_accesses


@pytest.mark.parametrize("name", NAMES)
def test_layer_counts_match_run_cell_and_repeat(name, tmp_path):
    w = small(name)
    cfg = w.config
    runs = [tracing.run_traced(w, SEED, 0.01, tmp_path) for _ in range(2)]
    (metrics, tally, info), (metrics2, _, info2) = runs
    assert tally.failed == 0
    assert info["main_pass"] == info2["main_pass"]
    for m in metrics:
        if metrics[m][1] != "ns" and metrics[m][1] != "us":
            assert metrics[m] == metrics2[m], m

    cells = [run_cell(cfg.mode, w.distribution, w.k, cfg.model, w.search,
                      cfg.rescale, n=w.symbols_per_stream,
                      seed=w.stream_seed(SEED, j),
                      rescale_interval=cfg.rescale_interval, timing_reps=1)
             for j in range(w.streams)]
    # equal-length streams: the pooled average is the mean of the cells'
    iters = sum(c.avg_search_iterations for c in cells) / len(cells)
    update = sum(c.avg_model_accesses_per_symbol for c in cells) / len(cells)
    rescale = sum(c.rescale_access_count for c in cells)
    assert metrics["search.iters"][0] == pytest.approx(iters, rel=1e-12)
    main = info["main_pass"]
    assert main["update_accesses"] / main["symbols"] == pytest.approx(
        update, rel=1e-12)
    assert main["rescale_accesses"] == rescale
    if cfg.mode == "adaptive":
        layer = f"{cfg.model}_model"
        assert metrics[f"{layer}.update_accesses"][0] == pytest.approx(
            update, rel=1e-12)
        assert metrics[f"{layer}.rescale_accesses"][0] == rescale
        assert rescale > 0


def test_corrupted_payloads_count_as_failed():
    w = small("static-k64")
    s = make_streams(w, SEED)[0]
    p = encode_stream(s, w.k, w.config)
    flipped = bytearray(p)
    flipped[-len(p) // 3] ^= 0x10
    huge_n = bytearray(p)
    huge_n[20] = 0xFF  # high bytes of the header's symbol count
    tally = Tally()
    assert decode_checked(p, w.search, s, tally) > 0
    for bad in (p[:len(p) // 2], p[:10], bytes(flipped), bytes(huge_n)):
        decode_checked(bad, w.search, s, tally)
    assert (tally.attempted, tally.failed) == (5, 4)


def test_decode_errors_do_not_end_the_run(monkeypatch):
    calls = []

    def flaky(payload, strategy=None, stats=None):
        calls.append(1)
        if len(calls) % 2:
            raise StreamFormatError("injected")
        return decode_stream(payload, strategy, stats)

    monkeypatch.setattr(workloads, "decode_stream", flaky)
    metrics, tally, info = run_end_to_end(small("msg-static-k256"), SEED, 0.01)
    assert 0 < tally.failed < tally.attempted
    assert info["failed_stream_share"] == tally.failed / tally.attempted
    assert "injected" in tally.errors[0]
    assert metrics["decode_ns_per_symbol"][0] > 0


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_cli_prints_every_declared_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", "static-k64", "--seed", "2",
                "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values()
               if not v["unit"] == "count")


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "static-k64", "--seed", "1",
                "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
