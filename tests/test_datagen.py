import numpy as np
import pytest
from scipy import stats as sstats

from rangekit.datagen import (
    GenSpec, gen_sequence, geom_params, geometric_probs, read_symbols,
    splitmix64, write_symbols,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec("zipf", 4, 10)
    with pytest.raises(ValueError):
        GenSpec("flat", 0, 10)
    with pytest.raises(ValueError):
        GenSpec("flat", 65537, 10)  # ISY symbols are uint16
    with pytest.raises(ValueError):
        GenSpec("flat", 4, -1)


def test_splitmix64_reference_outputs():
    # first outputs for seed 0 of the standard SplitMix64 stream
    got = splitmix64(0, 3)
    assert got[0] == 0xE220A8397B1DCDAF
    assert got[1] == 0x6E789E6AA1B965F4
    assert got[2] == 0x06C45D188009454F


def test_splitmix64_streaming_consistency():
    # element i of a long request equals element i of a short one
    assert np.array_equal(splitmix64(42, 10), splitmix64(42, 100)[:10])


def test_geom_params():
    assert geom_params(16) == (0, 0.5)
    assert geom_params(64) == (2, 2.0 ** -0.25)
    assert geom_params(1024) == (6, 2.0 ** (-1.0 / 64))
    assert geom_params(2) == (0, 0.5)


def test_geometric_probs_shape():
    probs = geometric_probs(64)
    assert probs.shape == (64,)
    assert probs.sum() == pytest.approx(1.0)
    assert np.all(np.diff(probs) < 0)  # strictly decreasing
    assert probs[0] == pytest.approx(0.159103, abs=1e-5)


def test_gen_deterministic():
    spec = GenSpec("geometric", 64, 5000, 7)
    a = gen_sequence(spec)
    b = gen_sequence(spec)
    assert np.array_equal(a, b)
    c = gen_sequence(GenSpec("geometric", 64, 5000, 8))
    assert not np.array_equal(a, c)


def test_gen_empty():
    out = gen_sequence(GenSpec("flat", 4, 0))
    assert out.shape == (0,)
    assert out.dtype == np.uint16


def test_gen_range():
    for dist in ("flat", "geometric"):
        syms = gen_sequence(GenSpec(dist, 19, 3000, 5))
        assert syms.min() >= 0
        assert syms.max() < 19


def test_flat_is_uniform():
    syms = gen_sequence(GenSpec("flat", 16, 200_000, 3))
    freqs = np.bincount(syms, minlength=16) / len(syms)
    assert np.all(np.abs(freqs - 1 / 16) < 0.01 / 16 + 0.005)
    chi = sstats.chisquare(np.bincount(syms, minlength=16))
    assert chi.pvalue > 1e-6


def test_geometric_matches_target_probs():
    syms = gen_sequence(GenSpec("geometric", 64, 200_000, 7))
    freqs = np.bincount(syms, minlength=64) / len(syms)
    probs = geometric_probs(64)
    assert abs(freqs[0] - 0.159103) < 0.003
    chi = sstats.chisquare(np.bincount(syms, minlength=64),
                           probs * len(syms))
    assert chi.pvalue > 1e-6


def test_symbol_file_round_trip(tmp_path):
    path = tmp_path / "seq.isy"
    syms = gen_sequence(GenSpec("geometric", 300, 4000, 1))
    write_symbols(path, 300, syms)
    k, got = read_symbols(path)
    assert k == 300
    assert np.array_equal(got, syms)


def test_symbol_file_empty(tmp_path):
    path = tmp_path / "empty.isy"
    write_symbols(path, 5, [])
    k, got = read_symbols(path)
    assert k == 5
    assert len(got) == 0


def test_symbol_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.isy"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ValueError):
        read_symbols(path)
    path.write_bytes(b"IS")
    with pytest.raises(ValueError):
        read_symbols(path)


def test_symbol_file_rejects_truncated_body(tmp_path):
    path = tmp_path / "cut.isy"
    write_symbols(path, 4, [1, 2, 3])
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(ValueError):
        read_symbols(path)
