import numpy as np
import pytest
from hypothesis import given, strategies as st

from harmonmf.signal_io import Signal
from harmonmf.stft import (FRAME_BLOCK, ComplexSpectrogram, FrameParams,
                           MagnitudeSpectrogram, WindowSpectrum,
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


# frame counts one below, at and one above stft's and istft's block of
# frames, and several blocks past it
BLOCK_ROWS = [(256, 64, FRAME_BLOCK - 1), (256, 64, FRAME_BLOCK),
              (256, 64, FRAME_BLOCK + 1), (255, 100, 3 * FRAME_BLOCK + 5)]


@pytest.mark.parametrize("wl,hop,T", [(256, 64, 1), (256, 64, 130), *BLOCK_ROWS])
def test_stft_matches_one_rfft(wl, hop, T):
    """stft transforms its frames a block at a time and gives the bytes of
    one rfft over all windowed frames, the tail that fills no frame
    dropped."""
    p = FrameParams(window_len=wl, hop=hop, sample_rate=8000)
    x = np.random.default_rng(T).standard_normal((T - 1) * hop + wl + hop - 1)
    frames = np.lib.stride_tricks.sliding_window_view(x, wl)[::hop][:T]
    expected = np.fft.rfft(frames * hann_window(wl), axis=1).T
    out = stft(Signal(x, 8000), p).values
    assert out.shape == (p.n_bins, T)
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("wl,hop,T", [
    (256, 64, 130),   # default: hop divides the window
    (256, 100, 20),   # last block of each frame shorter than hop
    (256, 256, 5),    # no overlap
    (255, 64, 9),     # odd window: irfft needs n = wl
    (10, 3, 1),       # one frame
    (64, 100, 4),     # hop longer than the window: gaps
    *BLOCK_ROWS,
])
def test_istft_matches_frame_loop(wl, hop, T):
    """The strided overlap-add adds each sample's frames in the order of a
    frame-by-frame loop, within a block of frames and across blocks, so it
    gives that loop's bytes."""
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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("wl,hop,T", [(256, 64, 130), (255, 100, 3 * FRAME_BLOCK + 5)])
def test_stft_and_istft_follow_the_input_dtype(dtype, wl, hop, T):
    """float64 samples give a complex128 spectrum with the bytes of one rfft
    over the frames times the float64 window, and back float64 samples with
    the bytes of a frame-by-frame loop, as before float32 input was kept;
    float32 samples give a complex64 spectrum and float32 samples back, the
    same computations in float32 (window included).  Signal keeps float32
    samples and makes any other dtype float64."""
    p = FrameParams(window_len=wl, hop=hop, sample_rate=8000)
    x = np.random.default_rng(T).standard_normal((T - 1) * hop + wl).astype(dtype)
    assert Signal(x, 8000).samples.dtype == dtype
    assert Signal(x.astype(np.float16), 8000).samples.dtype == np.float64
    w = hann_window(wl).astype(dtype)
    frames = np.lib.stride_tricks.sliding_window_view(x, wl)[::hop]
    expected = np.fft.rfft(frames * w, axis=1).T
    spec = stft(Signal(x, 8000), p)
    assert spec.values.dtype == np.result_type(dtype, np.complex64)
    assert spec.values.tobytes() == expected.tobytes()
    y = np.zeros((T - 1) * hop + wl, dtype)
    wsum = np.zeros_like(y)
    for l, frame in enumerate(np.fft.irfft(expected.T, n=wl, axis=1)):
        y[l * hop:l * hop + wl] += frame * w
        wsum[l * hop:l * hop + wl] += w * w
    y /= np.maximum(wsum, 1e-12)
    out = istft(spec).samples
    assert out.dtype == dtype
    assert out.tobytes() == y.tobytes()


@given(seed=st.integers(0, 2**32 - 1), wl=st.integers(3, 512),
       hop_share=st.floats(0.0, 1.0), extra=st.integers(0, 3000),
       level=st.integers(-20, 20))
def test_generated_float32_roundtrip_interior(seed, wl, hop_share, extra, level):
    """istft(stft(x)) of float32 samples is float32 and, away from the first
    and last wl samples, within criterion 6's 1e-6 relative error, for any
    window of 3 to 512 samples overlapped 2 to 8 times (hop from wl // 8 to
    wl // 2) and any power-of-two level.  The float32 error grows with the
    overlap (test_float32_roundtrip_interior_at_hop_1), so the property
    stops at 8-fold overlap."""
    lo, hi = max(1, wl // 8), max(1, wl // 2)
    hop = lo + round(hop_share * (hi - lo))
    x = np.random.default_rng(seed).standard_normal(3 * wl + extra)
    x = (x * 2.0**level).astype(np.float32)
    rec = istft(stft(Signal(x, 8000), FrameParams(wl, hop, 8000))).samples
    assert rec.dtype == np.float32
    interior = slice(wl, len(rec) - wl)
    err = np.linalg.norm(rec[interior].astype(np.float64) - x[interior])
    assert err <= 1e-6 * np.linalg.norm(x[interior].astype(np.float64))


@given(seed=st.integers(0, 2**32 - 1), wl=st.integers(3, 512),
       hop_share=st.floats(0.0, 1.0),
       T=st.sampled_from([1, FRAME_BLOCK - 1, FRAME_BLOCK, FRAME_BLOCK + 1,
                          2 * FRAME_BLOCK, 2 * FRAME_BLOCK + 1]),
       tail_share=st.floats(0.0, 1.0), dtype=st.sampled_from([np.float32, np.float64]),
       level=st.integers(-20, 20))
def test_generated_magnitude_analysis_is_the_spectrum_magnitude(
        seed, wl, hop_share, T, tail_share, dtype, level):
    """stft(x, p, magnitude=True) gives the bytes of stft(x, p).magnitude(),
    in its dtype (float32 for float32 samples, float64 for float64), as a
    C-ordered K x T MagnitudeSpectrogram, for any window of 3 to 512 samples
    and hop from 1 to the window, at frame counts on both sides of
    FRAME_BLOCK and a tail of fewer than hop samples that fills no frame."""
    hop = 1 + round(hop_share * (wl - 1))
    n = (T - 1) * hop + wl + round(tail_share * (hop - 1))
    x = np.random.default_rng(seed).standard_normal(n) * 2.0**level
    signal, p = Signal(x.astype(dtype), 8000), FrameParams(wl, hop, 8000)
    mag = stft(signal, p, magnitude=True)
    reference = stft(signal, p).magnitude().values
    assert isinstance(mag, MagnitudeSpectrogram) and mag.params == p
    assert mag.values.dtype == reference.dtype == dtype
    assert mag.values.shape == (p.n_bins, T) and mag.values.flags.c_contiguous
    assert mag.values.tobytes() == reference.tobytes()


def test_magnitude_analysis_runs_the_magnitude_checks():
    """The magnitude analysis returns a MagnitudeSpectrogram built through its
    checks: a NaN sample is refused, where the complex analysis passes it
    on."""
    p = default_frame_params(8000)
    x = np.zeros(1000, np.float32)
    x[500] = np.nan
    assert not np.isfinite(stft(Signal(x, 8000), p).values).all()
    with pytest.raises(ValueError, match="finite"):
        stft(Signal(x, 8000), p, magnitude=True)


@pytest.mark.parametrize("wl, bound", [(1024, 6.5e-7), (2048, 1.6e-6)])
def test_float32_roundtrip_interior_at_hop_1(wl, bound):
    """Past 8-fold overlap the float32 round trip's interior error grows
    with the overlap: at hop 1 it reads 6.04e-7 for wl = 1024 and 1.52e-6
    for wl = 2048 on this seed (5.6e-7 to 6.3e-7 and 1.48e-6 to 1.56e-6
    over seeds 0 to 5), so the bounds are 6.5e-7 and 1.6e-6."""
    x = np.random.default_rng(0).standard_normal(3 * wl).astype(np.float32)
    rec = istft(stft(Signal(x, 8000), FrameParams(wl, 1, 8000))).samples
    interior = slice(wl, len(rec) - wl)
    err = np.linalg.norm(rec[interior].astype(np.float64) - x[interior])
    relative = err / np.linalg.norm(x[interior].astype(np.float64))
    print(f"wl = {wl}, hop = 1: relative interior error {relative:.3g}")
    assert relative <= bound


def test_stft_is_frames_major():
    """stft's values are the transpose of rfft's C-ordered T x K output, with
    no copy; magnitude() is C-ordered K x T, and neither it nor istft depends
    on the layout: a C-ordered copy of the spectrum gives the same bytes."""
    p = default_frame_params(8000)
    rng = np.random.default_rng(3)
    spec = stft(Signal(rng.standard_normal(4000), 8000), p)
    assert spec.values.T.flags.c_contiguous and not spec.values.flags.c_contiguous
    c_ordered = ComplexSpectrogram(np.ascontiguousarray(spec.values), p)
    mag = spec.magnitude()
    assert mag.values.flags.c_contiguous
    assert mag.values.tobytes() == c_ordered.magnitude().values.tobytes()
    assert istft(spec).samples.tobytes() == istft(c_ordered).samples.tobytes()


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


# case -> (call that raises ValueError, start of its message)
INVALID_SPECTROGRAMS = {
    "bin count": (lambda: ComplexSpectrogram(np.zeros((4, 3), complex),
                                             FrameParams(8, 2, 8000)),
                  "bin count does not match"),
    "negative magnitude": (lambda: MagnitudeSpectrogram(-np.ones((5, 3)),
                                                        FrameParams(8, 2, 8000)),
                           "magnitude entries must be finite and non-negative"),
    "nan magnitude": (lambda: MagnitudeSpectrogram(np.full((5, 3), np.nan),
                                                   FrameParams(8, 2, 8000)),
                      "magnitude entries must be finite and non-negative")}


@pytest.mark.parametrize("case", list(INVALID_SPECTROGRAMS))
def test_invalid_spectrogram_raises(case):
    call, message = INVALID_SPECTROGRAMS[case]
    with pytest.raises(ValueError, match=message):
        call()
