import csv
import io
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rangekit.bench import (
    CSV_COLUMNS, GridSpec, empirical_entropy, iteration_histogram, run_cell,
    run_suite, write_csv,
)
from rangekit.cli import main
from rangekit.datagen import MAX_ALPHABET, GenSpec, gen_sequence
from rangekit.linear_model import MAX_TOTALCOUNT, LinearModel
from rangekit.rangecoder import Decoder, Encoder
from rangekit.search import STRATEGIES, strategy_compatible

from conftest import ReferenceSearch

STATIC_REPLAY = [s for s in STRATEGIES
                 if strategy_compatible(s, "linear", "static") is None]


def test_entropy_known_values():
    assert empirical_entropy([0, 1, 0, 1], 2) == pytest.approx(1.0)
    assert empirical_entropy([3] * 10, 4) == pytest.approx(0.0)
    assert empirical_entropy(list(range(8)), 8) == pytest.approx(3.0)
    assert empirical_entropy([], 4) == 0.0


def test_run_cell_basic():
    rec = run_cell("adaptive", "flat", 8, "linear", "log", "orig",
                   n=2000, seed=1, rescale_interval=0, timing_reps=1)
    assert rec.output_bytes > 0
    assert rec.avg_search_iterations > 0
    assert rec.encode_ns_per_symbol > 0
    assert 2.9 < rec.entropy_bits_per_symbol <= 3.0


def test_run_cell_rejects_incompatible():
    for model, strategy, mode in (("linear", "bi", "adaptive"),
                                  ("fenwick", "tree", "adaptive"),
                                  ("linear", "tree", "adaptive"),
                                  ("fenwick", "log", "static")):
        with pytest.raises(ValueError) as exc:
            run_cell(mode, "flat", 8, model, strategy, "orig",
                     n=100, seed=1, rescale_interval=0, timing_reps=1)
        assert str(exc.value) == strategy_compatible(strategy, model, mode)


def small_axes(monkeypatch, **axes):
    """Patch the grid's axes, the module constants ``run_suite`` iterates."""
    import rangekit.bench as bench

    for name, value in axes.items():
        monkeypatch.setattr(bench, name, value)


def test_run_suite_small_grid(monkeypatch):
    small_axes(monkeypatch, POW2_KS=(4, 8), DISTRIBUTIONS=("flat",),
               MODELS=("linear",), STRATEGIES=("log", "bi"),
               RESCALES=("orig",))
    records = run_suite(GridSpec(modes=("adaptive",), n=300, seed=2,
                                 timing_reps=1))
    assert len(records) == 2  # 2 ks x the one runnable search
    assert {r.search for r in records} == {"log"}
    assert [r.k for r in records] == [4, 8]


def test_run_suite_rescale_axis_only_for_adaptive_fenwick(monkeypatch):
    small_axes(monkeypatch, POW2_KS=(4,))
    records = run_suite(GridSpec(n=50, timing_reps=1))
    # per distribution: 7 static linear, 1 static fenwick, 6 adaptive
    # linear and 1 adaptive fenwick search per rescale
    assert len(records) == 32
    both = {(r.mode, r.model) for r in records if r.rescale == "new"}
    assert both == {("adaptive", "fenwick")}
    assert {r.rescale for r in records} == {"orig", "new"}


def test_run_suite_codes_each_stream_cell_once(monkeypatch):
    import rangekit.bench as bench

    calls = Counter()

    def spy(name):
        real = getattr(bench, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)
        monkeypatch.setattr(bench, name, wrapper)

    for name in ("gen_sequence", "encode_stream", "count_stream", "decode_stream"):
        spy(name)
    small_axes(monkeypatch, POW2_KS=(4,))
    reps = 2
    records = run_suite(GridSpec(n=50, timing_reps=reps))
    cells = 10  # 2 distributions x (2 static + 3 adaptive streams)
    assert calls["gen_sequence"] == cells
    # one untimed encode per stream, whatever its number of searches
    assert calls["encode_stream"] == cells * (1 + reps)
    # one counting decode per stream, whatever its number of searches
    assert calls["count_stream"] == cells
    # decode_stream runs only the timed decodes
    assert calls["decode_stream"] == cells * reps
    streams = Counter((r.distribution, r.mode, r.model, r.rescale)
                      for r in records)
    assert len(streams) == cells and max(streams.values()) == 7
    # the timing columns are per stream
    assert len({(r.distribution, r.mode, r.model, r.rescale,
                 r.encode_ns_per_symbol, r.decode_ns_per_symbol)
                for r in records}) == cells


TIMING_COLUMNS = ("encode_ns_per_symbol", "decode_ns_per_symbol")
GOLDEN_GRID = Path(__file__).parent / "data" / "bench_grid_n256.csv"


def test_bench_grid_matches_golden(tmp_path):
    """``rangekit bench --n 256 --reps 1`` writes the committed rows, but
    for the timing columns, which the golden leaves out.  numpy's log2 may
    differ in the last bit between CPUs, so the entropy is compared to
    within 1e-12 relative; every other column is compared exactly."""
    out = tmp_path / "grid.csv"
    assert main(["bench", "--n", "256", "--reps", "1", "--csv", str(out)]) == 0
    with open(out, newline="") as fh:
        got = list(csv.DictReader(fh))
    with open(GOLDEN_GRID, newline="") as fh:
        reader = csv.DictReader(fh)
        want = list(reader)
    assert reader.fieldnames == [c for c in CSV_COLUMNS
                                 if c not in TIMING_COLUMNS]
    assert len(got) == len(want) == 320
    for row, golden in zip(got, want):
        entropy = float(row.pop("entropy_bits_per_symbol"))
        assert math.isclose(entropy,
                            float(golden.pop("entropy_bits_per_symbol")),
                            rel_tol=1e-12)
        assert {c: row[c] for c in golden} == golden


@pytest.mark.parametrize("kwargs,message", [
    ({"modes": ("streaming",)}, "unknown mode"),
    ({"n": -1}, "sequence length"),
])
def test_grid_spec_rejects_unrunnable_grid(kwargs, message):
    with pytest.raises(ValueError, match=message):
        GridSpec(**kwargs)


def test_grid_spec_accepts_axis_bounds():
    GridSpec(n=0)


@pytest.mark.parametrize("timing_reps", [0, -1])
def test_grid_spec_rejects_no_timing_reps(timing_reps):
    with pytest.raises(ValueError, match="at least 1"):
        GridSpec(timing_reps=timing_reps)


def test_csv_output(monkeypatch):
    small_axes(monkeypatch, POW2_KS=(4,), DISTRIBUTIONS=("flat",),
               MODELS=("linear",), STRATEGIES=("log",))
    buf = io.StringIO()
    write_csv(run_suite(GridSpec(modes=("static",), n=200, seed=1,
                                 timing_reps=1)), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "static"


def test_iteration_histogram_percentages_sum():
    seq = gen_sequence(GenSpec("geometric", 64, 20_000, 7)).tolist()
    stats = iteration_histogram("log", seq, 64)
    assert sum(stats.histogram.values()) == pytest.approx(100.0)
    assert stats.average == pytest.approx(
        sum(it * pct / 100 for it, pct in stats.histogram.items()))


def test_iteration_histogram_log_bound():
    seq = gen_sequence(GenSpec("flat", 64, 10_000, 3)).tolist()
    stats = iteration_histogram("log", seq, 64)
    assert max(stats.histogram) <= math.ceil(math.log2(64)) + 1


def test_iteration_histogram_table_trivial():
    stats = iteration_histogram("table", [0, 1, 2, 1], 3)
    assert stats.histogram == {1: 100.0}
    assert stats.average == 1.0


def test_iteration_histogram_caps_symbols_at_total_count():
    assert iteration_histogram("log", [0] * MAX_TOTALCOUNT, 2).histogram
    with pytest.raises(ValueError, match=f"must be in \\[1, {MAX_TOTALCOUNT}\\]"):
        iteration_histogram("log", [0] * (MAX_TOTALCOUNT + 1), 2)


def test_iteration_stats_script_reports_too_many_symbols():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_iteration_stats.py"),
         "--n", str(MAX_TOTALCOUNT + 1)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert f"error: sequence length must be in [1, {MAX_TOTALCOUNT}]" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_iteration_histogram_rejects_bad_input():
    with pytest.raises(ValueError):
        iteration_histogram("log", [], 4)
    with pytest.raises(ValueError):
        iteration_histogram("bi", [0, 1], 2)


@pytest.mark.parametrize("k", [0, MAX_ALPHABET + 1])
def test_iteration_histogram_rejects_alphabet_size(k):
    with pytest.raises(ValueError, match="alphabet size must be in"):
        iteration_histogram("log", [0], k)


@pytest.mark.parametrize("k", [1, MAX_ALPHABET])
def test_iteration_histogram_accepts_alphabet_bounds(k):
    assert iteration_histogram("log", [0, 0], k).histogram


@pytest.mark.parametrize("sequence,bad", [([0, -1, 1], -1), ([0, 5, 1], 5)])
def test_iteration_histogram_rejects_out_of_alphabet_symbol(sequence, bad):
    with pytest.raises(ValueError, match=f"symbol {bad} outside alphabet"):
        iteration_histogram("log", sequence, 3)


def captured_code_values(sequence, model):
    """Code values a step-by-step static decode of ``sequence`` sees."""
    hk, h, total = model.hk, model.h, model.total_count
    enc = Encoder()
    for s in sequence:
        enc.encode(hk[s], h[s], total)
    dec = Decoder(enc.finish())
    values = []
    for s in sequence:
        c = dec.decode_target(total)
        assert hk[s] <= c < hk[s + 1]
        dec.consume(hk[s], h[s])
        values.append(c)
    return values


@pytest.mark.parametrize("strategy", STATIC_REPLAY)
@settings(deadline=None, max_examples=40)
@given(st.integers(2, 40), st.data())
def test_iteration_histogram_matches_code_value_replay(strategy, k, data):
    """One search per symbol gives what replaying every decoded code value
    gives, also when some symbols never occur."""
    used = data.draw(st.lists(st.integers(0, k - 1), min_size=1,
                              max_size=k - 1, unique=True))
    sequence = data.draw(st.lists(st.sampled_from(used), min_size=1,
                                  max_size=400))
    counts = [0] * k
    for s in sequence:
        counts[s] += 1
    model = LinearModel(counts, adaptive=False)
    search = ReferenceSearch(strategy, model, False)
    hist = Counter(search.find(c)[1]
                   for c in captured_code_values(sequence, model))
    n = len(sequence)
    stats = iteration_histogram(strategy, sequence, k)
    assert stats.histogram == {it: 100.0 * cnt / n
                               for it, cnt in sorted(hist.items())}
    assert stats.average == sum(it * cnt for it, cnt in hist.items()) / n
