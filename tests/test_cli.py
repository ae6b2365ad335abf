import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rangekit
from rangekit import _loops
from rangekit.cli import main
from rangekit.datagen import read_symbols, write_symbols
from rangekit.rangecoder import StreamHeader, pack_header

from conftest import python_loops


def test_gen_encode_decode_round_trip(tmp_path):
    raw = tmp_path / "seq.isy"
    packed = tmp_path / "seq.irc"
    out = tmp_path / "out.isy"
    assert main(["gen", "--dist", "geom", "--k", "32", "--n", "2000",
                 "--seed", "3", "-o", str(raw)]) == 0
    assert main(["encode", "--mode", "adaptive", "--model", "fenwick",
                 "--rescale", "new", "--rescale-interval", "256",
                 "-i", str(raw), "-o", str(packed)]) == 0
    assert main(["decode", "--search", "bi", "-i", str(packed),
                 "-o", str(out)]) == 0
    k1, a = read_symbols(raw)
    k2, b = read_symbols(out)
    assert k1 == k2 == 32
    assert np.array_equal(a, b)


def test_static_round_trip_default_options(tmp_path):
    raw = tmp_path / "seq.isy"
    packed = tmp_path / "seq.irc"
    out = tmp_path / "out.isy"
    main(["gen", "--dist", "flat", "--k", "5", "--n", "400", "-o", str(raw)])
    assert main(["encode", "--mode", "static", "-i", str(raw),
                 "-o", str(packed)]) == 0
    assert main(["decode", "-i", str(packed), "-o", str(out)]) == 0
    _, a = read_symbols(raw)
    _, b = read_symbols(out)
    assert np.array_equal(a, b)


def test_bench_writes_csv(tmp_path, monkeypatch):
    import rangekit.bench as bench

    real = bench.GridSpec

    def small_grid(**kw):
        # shrink the default grid so the CLI path stays fast under test
        kw.setdefault("ks", (4,))
        kw.setdefault("distributions", ("flat",))
        kw.setdefault("models", ("linear",))
        kw.setdefault("searches", ("log", "table"))
        kw.setdefault("rescales", ("orig",))
        return real(**kw)

    monkeypatch.setattr(bench, "GridSpec", small_grid)
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", "--suite", "static", "--n", "200", "--reps", "1",
                 "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("mode,")
    assert len(lines) == 3


class StreamRan(Exception):
    pass


@pytest.fixture
def no_stream(monkeypatch):
    """Make the first stream the bench grid runs raise ``StreamRan``."""
    import rangekit.bench as bench

    def spy(*args, **kw):
        raise StreamRan

    monkeypatch.setattr(bench, "run_stream", spy)


def test_bench_runs_streams_after_checking_options(tmp_path, no_stream):
    # positive control for the two tests below: the spy does fire
    with pytest.raises(StreamRan):
        main(["bench", "--reps", "1", "--csv", str(tmp_path / "bench.csv")])


def test_bench_rejects_zero_reps_before_running(tmp_path, no_stream, capsys):
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", "--reps", "0", "--csv", str(csv_path)]) == 1
    err = capsys.readouterr().err
    assert "error: timing repetitions must be at least 1, got 0" in err
    assert not csv_path.exists()


def test_bench_rejects_bad_csv_path_before_running(tmp_path, no_stream,
                                                  capsys):
    csv_path = tmp_path / "missing" / "bench.csv"
    assert main(["bench", "--csv", str(csv_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not csv_path.parent.exists()


@pytest.mark.parametrize("argv,given", [
    ([], {}),
    (["--suite", "full"], {}),
    (["--suite", "static", "--n", "7", "--seed", "3", "--reps", "2"],
     {"modes": ("static",), "n": 7, "seed": 3, "timing_reps": 2}),
])
def test_bench_passes_only_given_options(tmp_path, monkeypatch, argv, given):
    import rangekit.bench as bench

    # other defaults than GridSpec's: the CLI must keep none of its own
    @dataclasses.dataclass(frozen=True)
    class OtherDefaults(bench.GridSpec):
        modes: tuple = ("adaptive",)
        n: int = 64
        seed: int = 9
        timing_reps: int = 3

    grids = []
    monkeypatch.setattr(bench, "GridSpec", OtherDefaults)
    monkeypatch.setattr(bench, "run_suite", lambda grid: grids.append(grid) or [])
    assert main(["bench", *argv, "--csv", str(tmp_path / "bench.csv")]) == 0
    assert grids == [OtherDefaults(**given)]


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all selftests passed" in out
    assert "FAIL" not in out


def test_selftest_names_the_stream_loops_in_use(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    if _loops.lib() is not None:
        assert "stream loops in use: compiled" in out
        assert "ok: adaptive round trip (fenwick, compiled loop)" in out
    with python_loops():
        assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "stream loops in use: python" in out
    assert "compiled loop)" not in out
    assert "ok: adaptive round trip (fenwick, python loop)" in out


def test_decode_bad_magic_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.irc"
    bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
    out = tmp_path / "out.isy"
    assert main(["decode", "-i", str(bad), "-o", str(out)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_input_reports_error(tmp_path, capsys):
    assert main(["encode", "-i", str(tmp_path / "nope.isy"),
                 "-o", str(tmp_path / "out.irc")]) == 1
    assert "error:" in capsys.readouterr().err


#: the CLI with the compiled loops turned off, as ``python_loops()`` does
PYTHON_LOOPS_CLI = ("-c", "import sys; from rangekit import _loops, cli; "
                    "_loops._lib = None; sys.exit(cli.main(sys.argv[1:]))")


def _cli_in_subprocess(*args, entry=("-m", "rangekit.cli")):
    src = str(Path(rangekit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, *entry, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=60)


def _decode_in_subprocess(tmp_path, header, *options):
    bad = tmp_path / "bad.irc"
    bad.write_bytes(pack_header(header) + b"\x00" * 5)
    return _cli_in_subprocess("decode", *options, "-i", bad,
                              "-o", tmp_path / "out.isy")


def test_decode_hostile_static_header_reports_error(tmp_path):
    header = StreamHeader("static", "linear", "orig", 0, 3, 9, (0, 0, 0))
    proc = _decode_in_subprocess(tmp_path, header)
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_decode_past_payload_reports_error(tmp_path):
    header = StreamHeader("adaptive", "linear", "orig", 0, 2, 1 << 40, None)
    for options in ((), ("--max-symbols", 1 << 40)):
        proc = _decode_in_subprocess(tmp_path, header, *options)
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_decode_symbol_limit_option(tmp_path, capsys):
    """``decode --max-symbols`` decodes a stream of that many symbols and
    rejects one of more, naming the limit, without a traceback."""
    raw, packed, out = (tmp_path / name for name in ("seq.isy", "seq.irc", "out.isy"))
    write_symbols(raw, 4, [0, 1, 2, 3] * 3)
    assert main(["encode", "-i", str(raw), "-o", str(packed)]) == 0
    assert main(["decode", "--max-symbols", "12", "-i", str(packed),
                 "-o", str(out)]) == 0
    assert read_symbols(out)[1].tolist() == [0, 1, 2, 3] * 3
    assert main(["decode", "--max-symbols", "11", "-i", str(packed),
                 "-o", str(out)]) == 1
    assert ("error: header claims 12 symbols, more than the limit of 11"
            in capsys.readouterr().err)


@pytest.mark.parametrize("mode", ("static", "adaptive"))
def test_encode_out_of_alphabet_symbol_reports_error(tmp_path, mode):
    # the ISY header says K=4 but the body holds symbol 9; both loops
    # reject it before coding
    raw = tmp_path / "bad.isy"
    write_symbols(raw, 4, [0, 9, 1])
    for entry in (("-m", "rangekit.cli"), PYTHON_LOOPS_CLI):
        proc = _cli_in_subprocess("encode", "--mode", mode, "-i", raw,
                                  "-o", tmp_path / "out.irc", entry=entry)
        assert proc.returncode == 1
        assert "error: symbol 9 outside alphabet of size 4" in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("n", (1 << 63, 1 << 40))
def test_encode_forged_symbol_count_reports_error(tmp_path, n):
    # the ISY header announces n symbols, the body holds three
    raw = tmp_path / "forged.isy"
    write_symbols(raw, 4, [0, 1, 2])
    data = bytearray(raw.read_bytes())
    data[8:16] = n.to_bytes(8, "little")
    raw.write_bytes(data)
    proc = _cli_in_subprocess("encode", "-i", raw, "-o", tmp_path / "out.irc")
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bench_bad_grid_reports_error_and_writes_no_csv(tmp_path):
    out = tmp_path / "out.csv"
    proc = _cli_in_subprocess("bench", "--n", -1, "--csv", out)
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_gen_rejects_alphabet_above_uint16(tmp_path, capsys):
    assert main(["gen", "--dist", "flat", "--k", "70000", "--n", "10",
                 "-o", str(tmp_path / "seq.isy")]) == 1
    assert "error:" in capsys.readouterr().err
