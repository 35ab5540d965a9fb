import tracemalloc

import numpy as np
import pytest

from conftest import harmonic_signal, white_noise

import harmonmf as h
from harmonmf.enhance import (EnhanceConfig, build_speech_atoms, enhance,
                              enhance_oracle, enhance_plain,
                              sweep_atoms_sparsity, wiener_reconstruct,
                              write_magnitude_csv, write_pgm)
from harmonmf.signal_io import Signal, snr_db
from harmonmf.stft import ComplexSpectrogram, MagnitudeSpectrogram, stft


def small_config(**kw):
    defaults = dict(L=5, m=2, p_star=10, m_n=4, iterations=5, seed=0)
    defaults.update(kw)
    return EnhanceConfig(**defaults)


def test_config_defaults_match_protocol():
    c = EnhanceConfig()
    assert (c.sr, c.window_ms, c.overlap) == (8000, 32.0, 0.75)
    assert (c.f_min, c.f_max, c.L, c.m, c.p_star) == (80, 400, 33, 4, 30)
    assert (c.r, c.m_n) == (16, 16)
    assert (c.lambda_s, c.lambda_n, c.alpha, c.iterations) == (0.2, 0.0, 10.0, 25)


def test_default_dictionary_sizing(frame_params):
    """33 stacked bases of 4 atoms each, padded to 30 harmonics (80 Hz)."""
    group = build_speech_atoms(EnhanceConfig(), frame_params)
    assert group.coeffs.shape == (33, 4, 30) and group.n_atoms == 132
    assert group.psi.shape == (33, frame_params.n_bins, 30)


def test_default_start_coefficients_unchanged(frame_params):
    """At the default config every basis has p <= 30 harmonics, so the start
    jitter is 0.001 and the start coefficients are bitwise the draws
    uniform(1/p - 0.001, 1/p + 0.001), basis by basis from one seeded stream."""
    config = EnhanceConfig()
    group = build_speech_atoms(config, frame_params)
    rng = np.random.default_rng(config.seed)
    expected = np.zeros_like(group.coeffs)
    for l, f in enumerate(h.fundamental_grid(config.f_min, config.f_max,
                                             config.L, config.sr)):
        p = h.harmonic_count(f, config.sr, config.p_star)
        expected[l, :, :p] = rng.uniform(1.0 / p - 0.001, 1.0 / p + 0.001,
                                         (config.m, p))
    assert np.array_equal(group.coeffs, expected)


def test_many_harmonics_start_positive():
    """A 2 Hz fundamental keeps 2000 harmonics below Nyquist, where a fixed
    jitter of 0.001 would exceed 1/p: every start on a real harmonic is
    still positive, and the padding of the 400 Hz basis (10 harmonics) is 0."""
    config = EnhanceConfig(f_min=2.0, f_max=400.0, L=2, p_star=5000)
    group = build_speech_atoms(config, config.frame_params())
    assert group.coeffs.shape == (2, config.m, 2000)
    assert np.all(group.coeffs[0] > 0)
    assert np.all(group.coeffs[1, :, :10] > 0)
    assert not group.coeffs[1, :, 10:].any()


def random_spec(frame_params, seed=0):
    rng = np.random.default_rng(seed)
    K, T = frame_params.n_bins, 8
    vals = rng.standard_normal((K, T)) + 1j * rng.standard_normal((K, T))
    return ComplexSpectrogram(vals, frame_params)


def test_wiener_passthrough(frame_params):
    spec = random_spec(frame_params)
    mag = spec.magnitude()
    out = wiener_reconstruct(spec, mag, mag)
    assert np.allclose(out.values, spec.values, atol=1e-12)


def test_wiener_full_suppression(frame_params):
    spec = random_spec(frame_params)
    zero = MagnitudeSpectrogram(np.zeros_like(spec.magnitude().values), frame_params)
    out = wiener_reconstruct(spec, zero, spec.magnitude())
    assert np.all(out.values == 0)


def test_wiener_half_gain(frame_params):
    spec = random_spec(frame_params)
    total = spec.magnitude()
    half = MagnitudeSpectrogram(total.values / 2, frame_params)
    out = wiener_reconstruct(spec, half, total)
    assert np.allclose(out.values, spec.values / 2, atol=1e-12)


def test_wiener_gain_bounded(frame_params):
    spec = random_spec(frame_params)
    mag = spec.magnitude()
    big = MagnitudeSpectrogram(mag.values * 3, frame_params)
    out = wiener_reconstruct(spec, big, mag)  # speech exceeding total clips to 1
    assert np.allclose(np.abs(out.values), np.abs(spec.values), atol=1e-12)


def test_wiener_shape_mismatch(frame_params):
    spec = random_spec(frame_params)
    bad = MagnitudeSpectrogram(np.zeros((frame_params.n_bins, 3)), frame_params)
    with pytest.raises(ValueError):
        wiener_reconstruct(spec, bad, bad)


def test_enhance_output_length_and_partition(noise_shapes, desk_mixture):
    clean, noisy = desk_mixture
    res = enhance(noisy, noise_shapes, small_config())
    assert len(res.denoised) == len(noisy)
    total = res.speech_magnitude.values + res.noise_magnitude.values
    assert np.all(res.speech_magnitude.values >= 0)
    assert np.all(res.noise_magnitude.values >= 0)
    assert np.all(np.isfinite(total))
    assert len(res.objective_trace) == small_config().iterations + 1


def test_enhance_deterministic(noise_shapes, desk_mixture):
    _, noisy = desk_mixture
    a = enhance(noisy, noise_shapes, small_config())
    b = enhance(noisy, noise_shapes, small_config())
    assert np.array_equal(a.speech_magnitude.values, b.speech_magnitude.values)
    assert np.array_equal(a.denoised.samples, b.denoised.samples)


@pytest.mark.parametrize("mode", ["lin", "dense"])
def test_enhance_trace_off_same_output(noise_shapes, desk_mixture, mode):
    """trace=False computes no objective, so the trace is empty; the output
    does not change."""
    _, noisy = desk_mixture
    on = enhance(noisy, noise_shapes, small_config(mode=mode))
    off = enhance(noisy, noise_shapes, small_config(mode=mode), trace=False)
    assert np.array_equal(off.denoised.samples, on.denoised.samples)
    assert np.array_equal(off.speech_magnitude.values, on.speech_magnitude.values)
    assert np.array_equal(off.noise_magnitude.values, on.noise_magnitude.values)
    assert off.objective_trace == []


def test_trained_and_loaded_shapes_enhance_alike(noise_shapes, desk_mixture,
                                                 tmp_path):
    """Shapes held in memory as training returned them (F-ordered) and the
    same shapes saved and loaded back (C-ordered) give the same output
    bytes: the noise group holds its basis C-ordered either way."""
    _, noisy = desk_mixture
    path = tmp_path / "shapes.nshp"
    h.save_noise_shapes(noise_shapes, path)
    loaded = h.load_noise_shapes(path)
    a = enhance(noisy, noise_shapes, small_config(), trace=False)
    b = enhance(noisy, loaded, small_config(), trace=False)
    assert a.denoised.samples.tobytes() == b.denoised.samples.tobytes()


def test_huge_p_star_pads_to_largest_count(noise_shapes, desk_mixture):
    """The bases are padded to the grid's largest harmonic count,
    floor(8000 / (2 * 80)) = 50, never to p_star: p_star = 10**9 gives the
    same bytes as p_star = 50, and its peak traced allocation is no larger
    than at p_star = 50 (one array sized by p_star would take gigabytes)."""
    _, noisy = desk_mixture
    runs = []
    for p_star in (50, 10**9):
        tracemalloc.start()
        try:
            out = enhance(noisy, noise_shapes, small_config(p_star=p_star),
                          trace=False)
            runs.append((out.denoised.samples.tobytes(),
                         tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
    (bytes_50, peak_50), (bytes_huge, peak_huge) = runs
    assert bytes_huge == bytes_50
    assert peak_huge <= peak_50 + 2**20


def test_config_frame_fits_shapes_header():
    """The .nshp header stores window_len as u32: at 8 kHz a window of
    2**32 - 1 samples is accepted and one of 2**32 is a degenerate frame."""
    longest = EnhanceConfig(window_ms=(2**32 - 1) / 8)
    assert longest.frame_params().window_len == 2**32 - 1
    with pytest.raises(ValueError, match="degenerate frame"):
        EnhanceConfig(window_ms=2**32 / 8)


def test_enhance_rate_mismatch(noise_shapes):
    bad = Signal(np.zeros(16000), 16000)
    with pytest.raises(ValueError, match="sample rate"):
        enhance(bad, noise_shapes, small_config())


def test_enhance_shapes_params_mismatch(noise_shapes):
    with pytest.raises(ValueError, match="frame parameters"):
        enhance(white_noise(), noise_shapes, small_config(window_ms=16.0))


def test_noise_only_mostly_suppressed(noise_shapes):
    noise = white_noise(seconds=1.0, seed=7)
    res = enhance(noise, noise_shapes, EnhanceConfig(mode="dense", seed=0))
    ratio = np.sum(res.denoised.samples**2) / np.sum(noise.samples**2)
    assert ratio <= 0.10


def test_enhance_improves_snr(noise_shapes, desk_mixture):
    clean, noisy = desk_mixture
    res = enhance(noisy, noise_shapes, EnhanceConfig(mode="dense", seed=0))
    assert snr_db(clean, res.denoised) >= snr_db(clean, noisy) + 3.0


def test_plain_baseline(noise_shapes, desk_mixture):
    clean, noisy = desk_mixture
    res = enhance_plain(noisy, noise_shapes, small_config(), free_atoms=16)
    assert len(res.denoised) == len(noisy)
    out = snr_db(clean, res.denoised)
    assert np.isfinite(out)
    obj = [p.total for p in res.objective_trace]
    for a, b in zip(obj, obj[1:]):
        assert b <= a + 1e-9 * (1 + abs(a))


def test_oracle_frozen_and_monotone(noise_shapes, desk_mixture):
    clean, noisy = desk_mixture
    res = enhance_oracle(noisy, clean, noise_shapes, small_config(),
                         oracle_atoms=8)
    obj = [p.total for p in res.objective_trace]
    for a, b in zip(obj, obj[1:]):
        assert b <= a + 1e-9 * (1 + abs(a))


def test_oracle_on_clean_input(noise_shapes):
    clean = harmonic_signal()
    res = enhance_oracle(clean, clean, noise_shapes, EnhanceConfig(seed=0),
                         oracle_atoms=32)
    assert snr_db(clean, res.denoised) >= 20.0


def test_oracle_alignment_check(noise_shapes):
    clean = harmonic_signal()
    short = Signal(clean.samples[:-10], clean.sample_rate)
    with pytest.raises(ValueError, match="aligned"):
        enhance_oracle(short, clean, noise_shapes, small_config())


def test_sweep_single_cell_matches_direct(noise_shapes, desk_mixture):
    clean, noisy = desk_mixture
    cfg = small_config(m=2)
    rows = sweep_atoms_sparsity(noisy, clean, noise_shapes, cfg, [5], [0.3])
    assert len(rows) == 1
    L, lam, n_atoms, out_snr = rows[0]
    assert (L, lam, n_atoms) == (5, 0.3, 5 * 2 + 4)
    from dataclasses import replace
    direct = enhance(noisy, noise_shapes,
                     replace(cfg, L=5, lambda_s=0.3, mode="dense"))
    assert out_snr == snr_db(clean, direct.denoised)


def test_sweep_row_ordering(noise_shapes, desk_mixture):
    clean, noisy = desk_mixture
    cfg = small_config(iterations=2)
    rows = sweep_atoms_sparsity(noisy, clean, noise_shapes, cfg,
                                [4, 2], [0.5, 0.2])
    assert [(r[0], r[1]) for r in rows] == [(2, 0.2), (2, 0.5),
                                            (4, 0.2), (4, 0.5)]


def test_pgm_and_csv_dumps(tmp_path, frame_params):
    rng = np.random.default_rng(0)
    mag = MagnitudeSpectrogram(rng.random((frame_params.n_bins, 7)), frame_params)
    pgm = tmp_path / "m.pgm"
    write_pgm(mag, pgm)
    data = pgm.read_bytes()
    assert data.startswith(b"P5\n7 129\n255\n")
    assert len(data) == len(b"P5\n7 129\n255\n") + 129 * 7
    csv_path = tmp_path / "m.csv"
    write_magnitude_csv(mag, csv_path)
    back = np.loadtxt(csv_path, delimiter=",")
    assert np.allclose(back, mag.values)
