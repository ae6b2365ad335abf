import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rangekit
from rangekit.cli import main
from rangekit.datagen import read_symbols, write_symbols
from rangekit.rangecoder import StreamHeader, pack_header


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


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all selftests passed" in out
    assert "FAIL" not in out


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


def _cli_in_subprocess(*args):
    src = str(Path(rangekit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "rangekit.cli", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=60)


def _decode_in_subprocess(tmp_path, header):
    bad = tmp_path / "bad.irc"
    bad.write_bytes(pack_header(header) + b"\x00" * 5)
    return _cli_in_subprocess("decode", "-i", bad, "-o", tmp_path / "out.isy")


def test_decode_hostile_static_header_reports_error(tmp_path):
    header = StreamHeader("static", "linear", "orig", 0, 3, 9, (0, 0, 0))
    proc = _decode_in_subprocess(tmp_path, header)
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_decode_past_payload_reports_error(tmp_path):
    header = StreamHeader("adaptive", "linear", "orig", 0, 2, 1 << 40, None)
    proc = _decode_in_subprocess(tmp_path, header)
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("mode", ("static", "adaptive"))
def test_encode_out_of_alphabet_symbol_reports_error(tmp_path, mode):
    # the ISY header says K=4 but the body holds symbol 9
    raw = tmp_path / "bad.isy"
    write_symbols(raw, 4, [0, 9, 1])
    proc = _cli_in_subprocess("encode", "--mode", mode, "-i", raw,
                              "-o", tmp_path / "out.irc")
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_gen_rejects_alphabet_above_uint16(tmp_path, capsys):
    assert main(["gen", "--dist", "flat", "--k", "70000", "--n", "10",
                 "-o", str(tmp_path / "seq.isy")]) == 1
    assert "error:" in capsys.readouterr().err
