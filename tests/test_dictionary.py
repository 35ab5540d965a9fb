import contextlib
import io
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from conftest import white_noise

from harmonmf import dictionary, nmf
from harmonmf.cli import main
from harmonmf.dictionary import (FREE_FIT_ITERATIONS, NoiseShapes,
                                 build_harmonic_basis, build_noise_bases,
                                 fundamental_grid, harmonic_amplitudes,
                                 harmonic_count, load_noise_shapes,
                                 save_noise_shapes, shapes_fit,
                                 train_noise_shapes)
from harmonmf.enhance import EnhanceConfig, build_speech_atoms, enhance
from harmonmf.signal_io import write_wav
from harmonmf.stft import MagnitudeSpectrogram, default_frame_params, stft

SR = 8000


def test_grid_paper_spacing():
    g = fundamental_grid(80, 400, 33, SR)
    assert len(g) == 33
    assert np.allclose(np.diff(g), 10.0)
    assert g[0] == 80 and g[-1] == 400


def test_grid_endpoints_only():
    g = fundamental_grid(80, 400, 2, SR)
    assert np.allclose(g, [80, 400])
    g = fundamental_grid(100, 100.5, 2, SR)
    assert np.allclose(g, [100, 100.5])


def test_grid_bad_bounds():
    with pytest.raises(ValueError):
        fundamental_grid(400, 80, 10, SR)
    with pytest.raises(ValueError):
        fundamental_grid(80, 5000, 10, SR)
    with pytest.raises(ValueError):
        fundamental_grid(80, 400, 1, SR)


def test_amplitudes_direct_value():
    c = harmonic_amplitudes(0.2, 3)
    assert c[0] == pytest.approx((np.sin(0.1) / 0.1) ** 2, rel=1e-12)


def test_amplitudes_limit_and_monotone():
    c = harmonic_amplitudes(1e-6, 5)
    assert np.all(np.abs(c - 1.0) < 1e-9)
    c = harmonic_amplitudes(0.1, 30)  # k*w/2 < pi for all k
    assert np.all(np.diff(c) < 0)
    assert np.all((c > 0) & (c <= 1))


def test_amplitudes_floored_at_exact_zero():
    # k=2 lands on sinc zero: 2*w/2 = pi
    c = harmonic_amplitudes(np.pi * 0.9999999999, 2)
    assert c[-1] >= 1e-8


def test_harmonic_count_examples():
    assert harmonic_count(400, SR, 30) == 10
    assert harmonic_count(80, SR, 30) == 30
    assert harmonic_count(4000, SR, 30) == 1


def test_basis_column_argmax_bins():
    params = default_frame_params(SR)
    [psi] = build_harmonic_basis(np.array([120.0]), params, 30)
    w0 = 2 * np.pi * 120.0 / SR
    for k in range(1, psi.shape[1] + 1):
        expected = round(k * w0 * params.window_len / (2 * np.pi))
        assert np.argmax(psi[:, k - 1]) == expected


def test_basis_400hz_has_10_columns():
    [psi] = build_harmonic_basis(np.array([400.0]), default_frame_params(SR), 30)
    assert psi.shape[1] == 10
    assert np.all(psi >= 0)
    assert np.all(psi.sum(axis=0) > 0)


def test_stacked_bases_padded_to_largest_count():
    """Each basis of a stacked build equals its own single-fundamental
    build, zero-padded to the largest harmonic count."""
    params = default_frame_params(SR)
    f0 = np.array([400.0, 150.0, 1000.0])
    psi = build_harmonic_basis(f0, params, 30)
    assert psi.shape == (3, params.n_bins, 26)  # 8000 // 300 = 26 at 150 Hz
    for basis, f in zip(psi, f0):
        [own] = build_harmonic_basis(np.array([f]), params, 30)
        p = harmonic_count(f, SR, 30)
        assert own.shape[1] == p
        assert np.array_equal(basis[:, :p], own) and not basis[:, p:].any()


@given(sr=st.sampled_from([4000, 8000, 11025, 16000]),
       window_ms=st.floats(4.0, 64.0), overlap=st.floats(0.1, 0.9),
       f_min=st.floats(2.0, 1000.0), f_max_share=st.floats(0.01, 0.99),
       L=st.sampled_from([2, 3, 5, 10, 20, 33, 50, 75, 100]),
       p_star=st.integers(1, 300))
@example(sr=8000, window_ms=32.0, overlap=0.75, f_min=2.0, f_max_share=0.001,
         L=2, p_star=5000)
def test_basis_nonzero_columns_are_its_first_harmonic_count(
        sr, window_ms, overlap, f_min, f_max_share, L, p_star):
    """The columns a basis holds any nonzero entry in are exactly its first
    harmonic_count, and build_speech_atoms, which takes the count from
    harmonic_count, starts its atoms' coefficients positive on exactly those
    columns.
    f_max lies f_max_share of the way from f_min to Nyquist."""
    f_max = f_min + f_max_share * (sr / 2 - f_min)
    try:
        config = EnhanceConfig(sr=sr, window_ms=window_ms, overlap=overlap,
                               f_min=f_min, f_max=f_max, L=L, p_star=p_star)
    except ValueError:
        assume(False)
    f0 = fundamental_grid(config.f_min, config.f_max, L, sr)
    group = build_speech_atoms(config, config.frame_params())
    for basis, coeffs, f in zip(group.psi, group.coeffs, f0):
        first = np.arange(basis.shape[1]) < harmonic_count(f, sr, p_star)
        assert np.array_equal(basis.any(axis=0), first)
        assert np.array_equal(coeffs > 0, np.broadcast_to(first, coeffs.shape))


def test_uniform_atom_is_comb():
    # 150 Hz keeps every harmonic strictly below Nyquist, away from edge bins
    [psi] = build_harmonic_basis(np.array([150.0]), default_frame_params(SR), 30)
    d = psi @ np.ones(psi.shape[1])
    interior = (d[1:-1] > d[:-2]) & (d[1:-1] > d[2:])
    assert interior.sum() == psi.shape[1]


def test_basis_memo_matches_cold_build(frame_params):
    """A warm call returns the cached array itself, for an array or a list of
    the same fundamentals; after cache_clear a cold build has the same bytes."""
    f0 = fundamental_grid(80, 400, 33, SR)
    warm = build_harmonic_basis(f0, frame_params, 30)
    assert build_harmonic_basis(list(f0), frame_params, 30) is warm
    dictionary._harmonic_basis.cache_clear()
    cold = build_harmonic_basis(f0, frame_params, 30)
    assert cold is not warm
    assert cold.dtype == warm.dtype and cold.shape == warm.shape
    assert cold.tobytes() == warm.tobytes()


def test_basis_memo_is_read_only(frame_params):
    psi = build_harmonic_basis(fundamental_grid(80, 400, 33, SR), frame_params, 30)
    assert not psi.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        psi[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        psi *= 2.0


@pytest.mark.parametrize("change", ["p_star", "params", "grid"])
def test_basis_memo_keyed_on_every_argument(frame_params, change):
    """Changing p_star, the frame parameters (here only the hop, which does not
    change the values) or the grid builds a new entry, which replaces the old."""
    f0 = fundamental_grid(80, 400, 33, SR)
    args = {"p_star": (f0, frame_params, 20),
            "params": (f0, default_frame_params(SR, overlap=0.5), 30),
            "grid": (fundamental_grid(80, 400, 34, SR), frame_params, 30)}[change]
    dictionary._harmonic_basis.cache_clear()
    base = build_harmonic_basis(f0, frame_params, 30)
    other = build_harmonic_basis(*args)
    assert other is not base
    assert build_harmonic_basis(*args) is other
    info = dictionary._harmonic_basis.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 1)
    again = build_harmonic_basis(f0, frame_params, 30)
    assert again is not base and again.tobytes() == base.tobytes()
    assert dictionary._harmonic_basis.cache_info().misses == 3


def test_basis_memo_is_bounded(frame_params):
    """The memo holds one entry, however many keys came before."""
    dictionary._harmonic_basis.cache_clear()
    for L in range(2, 6):
        build_harmonic_basis(fundamental_grid(80, 400, L, SR), frame_params, 30)
    assert dictionary._harmonic_basis.cache_info().currsize == 1


@pytest.mark.parametrize("mode", ["dense", "lin"])
def test_cold_and_warm_enhance_alike(desk_mixture, noise_shapes, mode):
    """An enhance that builds the bases and one that reuses them give the
    same bytes."""
    _, noisy = desk_mixture
    config = EnhanceConfig(mode=mode)
    dictionary._harmonic_basis.cache_clear()
    cold = enhance(noisy, noise_shapes, config, trace=False)
    warm = enhance(noisy, noise_shapes, config, trace=False)
    info = dictionary._harmonic_basis.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert cold.denoised.samples.tobytes() == warm.denoised.samples.tobytes()


def test_train_rank1_converges():
    params = default_frame_params(SR)
    rng = np.random.default_rng(0)
    Y = np.outer(rng.random(params.n_bins) + 0.1, rng.random(8) + 0.1)
    mag = MagnitudeSpectrogram(Y, params)
    groups = [nmf.BasisGroup(psi=None, coeffs=[[1.0 - rng.random(params.n_bins)]],
                             kind="noise")]
    settings = nmf.SolverSettings(lambda_s=0, lambda_n=0, alpha=0,
                                  iterations=100, mode="lin", seed=0)
    result = nmf.solve(Y, groups, settings)
    assert result.trace[-1].kl < 1e-6 * result.trace[0].kl
    shapes = train_noise_shapes(mag, 1, seed=0)
    assert shapes.n_matrix.shape == (params.n_bins, 1)


def test_train_contract_r16(noise_shapes):
    N = noise_shapes.n_matrix
    assert N.shape[1] == 16
    assert np.all(N >= 0)
    assert np.allclose(N.sum(axis=0), 1.0, atol=1e-12)


def test_train_fits_in_float32_normalizes_in_float64(monkeypatch, frame_params,
                                                     tmp_path):
    """The fit inside train_noise_shapes solves a float32 Y; the shapes come
    back float64 and are normalized there, so each column sums to 1 within
    float64 rounding, far inside the .nshp load check (1e-9).  Both solves of
    a train-noise run, the fit and the gains-only refit, see a float32 Y."""
    seen, solve = [], nmf.solve

    def spy(Y, *args, **kwargs):
        seen.append(Y.dtype)
        return solve(Y, *args, **kwargs)

    monkeypatch.setattr(nmf, "solve", spy)
    mag = stft(white_noise(seconds=2.0, seed=7), frame_params).magnitude()
    shapes = train_noise_shapes(mag, 16, seed=0)
    assert seen == [np.float32]
    assert shapes.n_matrix.dtype == np.float64
    assert np.max(np.abs(shapes.n_matrix.sum(axis=0) - 1.0)) <= 1e-12
    seen.clear()
    write_wav(white_noise(seconds=2.0, seed=7), tmp_path / "noise.wav")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train-noise", str(tmp_path / "noise.wav"),
                     str(tmp_path / "shapes.nshp")]) == 0
    assert seen == [np.float32, np.float32]


def test_train_refit_kl_matches_float64_fit(noise_shapes, frame_params):
    """The gains-only refit KL (dictionary.shapes_fit, the KL train-noise prints)
    over the trained shapes is within a relative 1e-6 of the same refit over
    shapes fit by a float64 solve from the same start.

    1e-6 is a requirement, not a derived bound: the KL is printed to 6
    significant digits, and a relative gap below 1e-6 moves at most its last
    digit.  A first-order bound does not get there.  Each shape entry moves
    by some relative delta (about 1e-5 here, asserted below 1e-4); with the
    gains held fixed each model entry V then moves by at most delta, so the
    KL, sum(Y log(Y/V) - Y + V), moves by at most about delta sum(Y + V),
    which is 18 delta KL on this noise (sum Y is about 9 KL), about 2e-4.
    The actual gap is far smaller (about 2e-8 on this noise) because after
    FREE_FIT_ITERATIONS the shapes are near a stationary point of the KL,
    where the first-order term nearly cancels."""
    mag = stft(white_noise(seconds=10.0, seed=7), frame_params).magnitude()
    K = mag.values.shape[0]
    rng = np.random.default_rng(0)
    group = nmf.BasisGroup(psi=None, coeffs=1.0 - rng.random((1, 16, K)),
                           kind="noise")
    settings = nmf.SolverSettings(lambda_s=0.0, lambda_n=0.0, alpha=0.0,
                                  iterations=FREE_FIT_ITERATIONS, mode="lin",
                                  seed=0)
    D = nmf.solve(mag.values, [group], settings, trace=False).dictionary
    assert D.dtype == np.float64
    shapes64 = NoiseShapes(D / D.sum(axis=0), frame_params)
    delta = np.max(np.abs(noise_shapes.n_matrix - shapes64.n_matrix)
                   / shapes64.n_matrix)
    assert delta < 1e-4
    config = EnhanceConfig()
    kl32 = shapes_fit(noise_shapes, mag, config.iterations, config.seed)
    kl64 = shapes_fit(shapes64, mag, config.iterations, config.seed)
    assert abs(kl32 - kl64) <= 1e-6 * kl64


def test_train_refit_kl_matches_float64_refit(noise_shapes, frame_params):
    """The refit KL train-noise prints (dictionary.shapes_fit, solved in float32)
    over the conftest noise shapes is within a relative 1e-6 of a float64
    refit over the same shapes: the print-precision requirement of
    test_train_refit_kl_matches_float64_fit."""
    mag = stft(white_noise(seconds=10.0, seed=7), frame_params).magnitude()
    config = EnhanceConfig()
    group = nmf.BasisGroup(psi=None, coeffs=noise_shapes.n_matrix.T[None],
                           kind="noise")
    settings = nmf.SolverSettings(lambda_s=0.0, lambda_n=0.0, alpha=0.0,
                                  iterations=config.iterations, mode="lin",
                                  seed=config.seed)
    refit = nmf.solve(mag.values, [group], settings,
                      frozen_dictionary=True, trace=False)
    assert refit.gains.dtype == np.float64
    kl64 = nmf.kl_divergence(mag.values, refit.dictionary @ refit.gains)
    kl32 = shapes_fit(noise_shapes, mag, config.iterations, config.seed)
    assert abs(kl32 - kl64) <= 1e-6 * kl64


def test_train_constant_frames():
    params = default_frame_params(SR)
    rng = np.random.default_rng(1)
    col = rng.random(params.n_bins) + 0.5
    Y = np.tile(col[:, None], (1, 10))
    groups = [nmf.BasisGroup(psi=None, coeffs=[[1.0 - rng.random(params.n_bins)]],
                             kind="noise") for _ in range(2)]
    settings = nmf.SolverSettings(lambda_s=0, lambda_n=0, alpha=0,
                                  iterations=300, mode="lin", seed=3)
    result = nmf.solve(Y, groups, settings)
    V = result.dictionary @ result.gains
    rel = np.abs(V - V[:, :1]) / np.maximum(V[:, :1], 1e-12)
    assert np.max(rel) < 1e-4


def test_train_rejects_degenerate():
    params = default_frame_params(SR)
    zero = MagnitudeSpectrogram(np.zeros((params.n_bins, 8)), params)
    with pytest.raises(ValueError, match="zero"):
        train_noise_shapes(zero, 2, seed=0)
    small = MagnitudeSpectrogram(np.ones((params.n_bins, 2)), params)
    with pytest.raises(ValueError, match="frames"):
        train_noise_shapes(small, 4, seed=0)


def test_noise_bases_identity_init(noise_shapes):
    group = build_noise_bases(noise_shapes, 16, seed=0)
    assert group.coeffs.shape == (1, 16, 16)
    D = nmf.realize([group])
    for j, a in enumerate(group.coeffs[0]):
        assert np.all(a > 0)
        d = D[:, j]
        ref = noise_shapes.n_matrix[:, j]
        assert np.linalg.norm(d - ref) / np.linalg.norm(ref) < 0.15
        assert np.allclose(d, noise_shapes.n_matrix @ a)


def test_noise_bases_single(noise_shapes):
    group = build_noise_bases(noise_shapes, 1, seed=5)
    assert group.coeffs.shape == (1, 1, 16)
    assert np.all(group.coeffs > 0)


def test_shapes_file_roundtrip(noise_shapes, tmp_path):
    path = tmp_path / "shapes.nshp"
    save_noise_shapes(noise_shapes, path)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"NSHP"
    back = load_noise_shapes(path)
    assert np.array_equal(back.n_matrix, noise_shapes.n_matrix)
    assert back.params == noise_shapes.params


def test_shapes_file_bad_magic(tmp_path):
    path = tmp_path / "bad.nshp"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(ValueError, match="noise-shapes"):
        load_noise_shapes(path)


def _with_header(good, **fields):
    """Shapes-file bytes with some header fields replaced."""
    names = ("K", "r", "rate", "window_len", "hop")
    values = dict(zip(names, struct.unpack_from("<IIdII", good, 4)))
    values.update(fields)
    return good[:4] + struct.pack("<IIdII", *values.values()) + good[28:]


def _with_entry(good, value):
    """Shapes-file bytes with the second stored entry replaced."""
    return good[:36] + struct.pack("<d", value) + good[44:]


SHAPES_CORRUPTIONS = {
    "header cut": lambda good: good[:20],
    "body cut": lambda good: good[:100],
    "trailing byte": lambda good: good + b"\0",
    "nan entry": lambda good: _with_entry(good, np.nan),
    "negative entry": lambda good: _with_entry(good, -1e-3),
    "no shapes": lambda good: _with_header(good, r=0)[:28],
    "infinite rate": lambda good: _with_header(good, rate=np.inf),
    "fractional rate": lambda good: _with_header(good, rate=8000.5),
    "zero rate": lambda good: _with_header(good, rate=0.0),
    "hop 0": lambda good: _with_header(good, hop=0),
    "K mismatch": lambda good: _with_header(good, window_len=2),
    "column not unit-l1": lambda good: _with_entry(
        good, struct.unpack_from("<d", good, 36)[0] + 1e-6),
}


@pytest.mark.parametrize("corruption", sorted(SHAPES_CORRUPTIONS))
def test_shapes_file_corrupt_rejected(noise_shapes, tmp_path, corruption):
    path = tmp_path / "shapes.nshp"
    save_noise_shapes(noise_shapes, path)
    path.write_bytes(SHAPES_CORRUPTIONS[corruption](path.read_bytes()))
    with pytest.raises(ValueError,
                       match=f"corrupt noise-shapes file {re.escape(str(path))}"):
        load_noise_shapes(path)


def test_speech_atom_total_count():
    # 33 fundamentals x 4 shapes per fundamental
    g = fundamental_grid(80, 400, 33, SR)
    assert len(g) * 4 == 132


# case -> (call that raises ValueError, start of its message)
INVALID_CALLS = {
    "fundamental 0 rad": (lambda: harmonic_amplitudes(0.0, 3),
                          r"fundamental must be in \(0, pi\)"),
    "no harmonic": (lambda: harmonic_amplitudes(1.0, 0), "need at least one harmonic"),
    "fundamental 0 Hz": (lambda: harmonic_count(0.0, SR, 30),
                         "fundamental must be positive"),
    "no noise shape": (lambda: train_noise_shapes(MagnitudeSpectrogram(
        np.ones((129, 4)), default_frame_params(SR)), 0),
                       "need at least one noise shape"),
    "no noise atom": (lambda: build_noise_bases(NoiseShapes(
        np.full((129, 2), 1 / 129), default_frame_params(SR)), 0, 0),
                      "need at least one noise atom")}


@pytest.mark.parametrize("case", list(INVALID_CALLS))
def test_invalid_argument_raises(case):
    call, message = INVALID_CALLS[case]
    with pytest.raises(ValueError, match=message):
        call()
