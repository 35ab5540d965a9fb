"""Short-time Fourier analysis/synthesis (symmetric Hann, weighted overlap-add)
and the oversampled analysis-window magnitude spectrum used to place harmonics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_io import Signal

_WSUM_FLOOR = 1e-12
WINDOW_OVERSAMPLE = 8


@dataclass(frozen=True)
class FrameParams:
    """Frames of window_len samples, hop apart; the FFT length is window_len."""
    window_len: int
    hop: int
    sample_rate: int

    def __post_init__(self):
        if self.window_len < 2 or self.hop < 1 or self.sample_rate <= 0:
            raise ValueError("degenerate frame parameters")

    @property
    def n_bins(self) -> int:
        return self.window_len // 2 + 1


def default_frame_params(sample_rate: int, window_ms: float = 32.0,
                         overlap: float = 0.75) -> FrameParams:
    window_len = int(round(sample_rate * window_ms / 1000.0))
    hop = int(round(window_len * (1.0 - overlap)))
    return FrameParams(window_len=window_len, hop=hop, sample_rate=sample_rate)


@dataclass(frozen=True)
class ComplexSpectrogram:
    values: np.ndarray  # K x T complex
    params: FrameParams

    def __post_init__(self):
        if self.values.shape[0] != self.params.n_bins:
            raise ValueError("bin count does not match window_len/2 + 1")

    def magnitude(self) -> "MagnitudeSpectrogram":
        return MagnitudeSpectrogram(np.abs(self.values), self.params)


@dataclass(frozen=True)
class MagnitudeSpectrogram:
    values: np.ndarray  # K x T non-negative
    params: FrameParams

    def __post_init__(self):
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise ValueError("magnitude entries must be finite and non-negative")


def hann_window(n: int) -> np.ndarray:
    """Symmetric Hann: 0.5 - 0.5*cos(2*pi*t/(n-1)), t = 0..n-1."""
    if n < 2:
        raise ValueError("window length must be >= 2")
    t = np.arange(n)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * t / (n - 1))


def stft(signal: Signal, params: FrameParams) -> ComplexSpectrogram:
    """Hann-windowed one-sided STFT; tail samples not filling a frame are dropped."""
    if signal.sample_rate != params.sample_rate:
        raise ValueError("signal sample rate does not match frame parameters")
    x = signal.samples
    wl, hop = params.window_len, params.hop
    if x.size < wl:
        raise ValueError("signal shorter than one analysis window")
    n_frames = (x.size - wl) // hop + 1
    w = hann_window(wl)
    frames = np.lib.stride_tricks.sliding_window_view(x, wl)[::hop][:n_frames]
    spec = np.fft.rfft(frames * w, axis=1).T
    return ComplexSpectrogram(np.ascontiguousarray(spec), params)


def _overlap_add(frames: np.ndarray, T: int, hop: int) -> np.ndarray:
    """Overlap-add of T frames of wl samples placed hop apart: frames is
    T x wl, or one frame of wl samples repeated T times.  Block j of a frame
    (samples j*hop up to (j+1)*hop) lands on output block l + j for frame l,
    so ceil(wl / hop) strided adds cover every frame.  They run from the
    last block to the first, so each output sample adds its frames in
    increasing l, the order of a frame-by-frame loop."""
    wl = frames.shape[-1]
    B = -(-wl // hop)
    out = np.zeros((T + B - 1, hop))
    for j in range(B - 1, -1, -1):
        block = frames[..., j * hop:(j + 1) * hop]
        out[j:j + T, :block.shape[-1]] += block
    return out.ravel()[:(T - 1) * hop + wl]


def istft(spec: ComplexSpectrogram) -> Signal:
    """Weighted overlap-add synthesis; inverse of stft on interior samples."""
    params = spec.params
    wl, hop = params.window_len, params.hop
    K, T = spec.values.shape
    w = hann_window(wl)
    # n = wl: for an odd window irfft's default length is 2(K - 1) = wl - 1
    frames = np.fft.irfft(spec.values.T, n=wl, axis=1)
    frames *= w
    y = _overlap_add(frames, T, hop)
    y /= np.maximum(_overlap_add(w * w, T, hop), _WSUM_FLOOR)
    return Signal(y, params.sample_rate)


class WindowSpectrum:
    """Magnitude spectrum of the analysis window, |w_hat(omega)|, with unit
    peak, oversampled WINDOW_OVERSAMPLE times and evaluated on [-pi, pi] by
    linear interpolation."""

    def __init__(self, params: FrameParams):
        n = WINDOW_OVERSAMPLE * params.window_len
        w = hann_window(params.window_len)
        mags = np.abs(np.fft.fft(w, n=n))
        mags /= mags.max()  # unit peak, so atom columns are O(1) and the
        # sparsity weight keeps its intended leverage in the update denominator
        # index grid shifted so omega runs -pi..pi (endpoint duplicated for interp)
        self.omegas = 2.0 * np.pi * (np.arange(n + 1) - n // 2) / n
        self.mags = np.concatenate(
            [np.fft.fftshift(mags), [mags[n // 2]]])

    def evaluate(self, omega) -> np.ndarray:
        """|w_hat| at arbitrary omega in rad/sample, linear interpolation."""
        return np.interp(omega, self.omegas, self.mags, left=0.0, right=0.0)
