import numpy as np
import pytest

from harmonmf.signal_io import Signal
from harmonmf.stft import (ComplexSpectrogram, FrameParams, WindowSpectrum,
                           default_frame_params, hann_window, istft, stft)


def test_hann_small():
    assert np.allclose(hann_window(3), [0.0, 1.0, 0.0])
    assert np.allclose(hann_window(4), [0.0, 0.75, 0.75, 0.0])


def test_hann_256_shape():
    w = hann_window(256)
    assert w[0] == 0.0 and w[255] == 0.0
    assert np.argmax(w) in (127, 128)
    assert w[127] == pytest.approx(w[128])


def test_hann_too_short():
    with pytest.raises(ValueError):
        hann_window(1)


def test_default_params_match_32ms_75pct():
    p = default_frame_params(8000)
    assert (p.window_len, p.hop) == (256, 64)
    assert p.window_len // p.hop == 4
    assert p.n_bins == 129


def test_frame_count_formula():
    p = default_frame_params(8000)
    spec = stft(Signal(np.zeros(8000), 8000), p)
    assert spec.values.shape == (129, (8000 - 256) // 64 + 1)
    assert spec.values.shape[1] == 122


def test_zero_signal_zero_spectrogram():
    p = default_frame_params(8000)
    spec = stft(Signal(np.zeros(1000), 8000), p)
    assert np.all(spec.values == 0)


def test_sinusoid_peaks_at_its_bin():
    p = default_frame_params(8000)
    k = 20
    f = 8000 * k / p.window_len
    t = np.arange(4000) / 8000
    spec = stft(Signal(np.sin(2 * np.pi * f * t), 8000), p)
    mags = np.abs(spec.values)
    assert np.all(np.argmax(mags, axis=0) == k)


def test_stft_errors():
    p = default_frame_params(8000)
    with pytest.raises(ValueError, match="rate"):
        stft(Signal(np.zeros(1000), 16000), p)
    with pytest.raises(ValueError, match="shorter"):
        stft(Signal(np.zeros(100), 8000), p)


def test_roundtrip_interior():
    p = default_frame_params(8000)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.standard_normal(4000)
        rec = istft(stft(Signal(x, 8000), p)).samples
        wl = p.window_len
        interior = slice(wl, len(rec) - wl)
        err = np.linalg.norm(rec[interior] - x[interior])
        assert err / np.linalg.norm(x[interior]) < 1e-6


def test_roundtrip_impulse():
    p = default_frame_params(8000)
    x = np.zeros(2000)
    x[1000] = 1.0
    rec = istft(stft(Signal(x, 8000), p)).samples
    assert abs(rec[1000] - 1.0) < 1e-6
    assert np.max(np.abs(np.delete(rec[256:-256], 1000 - 256))) < 1e-6


def test_istft_zero():
    p = default_frame_params(8000)
    spec = stft(Signal(np.zeros(1000), 8000), p)
    assert np.all(istft(spec).samples == 0)


@pytest.mark.parametrize("wl,hop,T", [
    (256, 64, 130),   # default: hop divides the window
    (256, 100, 20),   # last block of each frame shorter than hop
    (256, 256, 5),    # no overlap
    (255, 64, 9),     # odd window: irfft needs n = wl
    (10, 3, 1),       # one frame
    (64, 100, 4),     # hop longer than the window: gaps
])
def test_istft_matches_frame_loop(wl, hop, T):
    """The strided overlap-add adds each sample's frames in the order of a
    frame-by-frame loop, so it gives that loop's bytes."""
    p = FrameParams(window_len=wl, hop=hop, sample_rate=8000)
    rng = np.random.default_rng(T)
    values = (rng.standard_normal((p.n_bins, T))
              + 1j * rng.standard_normal((p.n_bins, T)))
    w = hann_window(wl)
    frames = np.fft.irfft(values.T, n=wl, axis=1)
    y = np.zeros((T - 1) * hop + wl)
    wsum = np.zeros_like(y)
    for l in range(T):
        y[l * hop:l * hop + wl] += frames[l] * w
        wsum[l * hop:l * hop + wl] += w * w
    y /= np.maximum(wsum, 1e-12)
    out = istft(ComplexSpectrogram(values, p)).samples
    assert out.tobytes() == y.tobytes()


def test_energy_scales_quadratically():
    p = default_frame_params(8000)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(2000)
    e1 = np.sum(np.abs(stft(Signal(x, 8000), p).values) ** 2)
    e2 = np.sum(np.abs(stft(Signal(3 * x, 8000), p).values) ** 2)
    assert e2 == pytest.approx(9 * e1, rel=1e-12)


def test_magnitude_is_abs():
    p = default_frame_params(8000)
    rng = np.random.default_rng(2)
    spec = stft(Signal(rng.standard_normal(1000), 8000), p)
    mag = spec.magnitude()
    assert np.array_equal(mag.values, np.abs(spec.values))
    assert np.all(mag.values >= 0)


def test_window_spectrum_peak_and_symmetry():
    ws = WindowSpectrum(default_frame_params(8000))
    assert ws.evaluate(0.0) == 1.0  # unit peak
    omegas = np.linspace(0.01, 3.0, 50)
    assert np.max(np.abs(ws.evaluate(omegas) - ws.evaluate(-omegas))) < 1e-12


def test_window_spectrum_first_zero():
    p = default_frame_params(8000)
    ws = WindowSpectrum(p)
    # two DFT bins from center for the unpadded length
    assert ws.evaluate(8 * np.pi / p.window_len) < 1e-3


def test_frame_params_validation():
    with pytest.raises(ValueError):
        FrameParams(window_len=1, hop=1, sample_rate=8000)
