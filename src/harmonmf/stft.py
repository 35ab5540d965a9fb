"""Short-time Fourier analysis/synthesis (symmetric Hann, weighted overlap-add)
and the oversampled analysis-window magnitude spectrum used to place harmonics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_io import Signal

_WSUM_FLOOR = 1e-12
WINDOW_OVERSAMPLE = 8
FRAME_BLOCK = 64  # frames windowed and transformed at a time by stft and istft


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
    """K x T complex values, complex64 or complex128.  stft makes them
    frames-major: values is the transpose of a C-ordered T x K array, each
    frame's K bins contiguous, so values.T is that array and istft reads it
    without a copy."""
    values: np.ndarray  # K x T complex
    params: FrameParams

    def __post_init__(self):
        if self.values.shape[0] != self.params.n_bins:
            raise ValueError("bin count does not match window_len/2 + 1")

    def magnitude(self) -> "MagnitudeSpectrogram":
        """|values| as a C-ordered K x T array, whatever the layout of values:
        the solve takes its K x T input C-ordered, and would copy an F-ordered
        one."""
        return MagnitudeSpectrogram(np.abs(self.values, order="C"), self.params)


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


def stft(signal: Signal, params: FrameParams,
         magnitude: bool = False) -> ComplexSpectrogram | MagnitudeSpectrogram:
    """Hann-windowed one-sided STFT; tail samples not filling a frame are
    dropped.  It follows the samples' dtype: float32 samples, windowed by
    the float32 window, give a complex64 spectrum, and float64 samples a
    complex128 one.  The values are frames-major (see ComplexSpectrogram):
    a C-ordered T x K array, transposed without a copy.  FRAME_BLOCK frames
    are windowed and transformed at a time, so no T x window_len windowed
    copy is built; each frame's bins are those of one rfft over all frames.
    With magnitude=True no complex spectrum is built: each block's |rfft|
    goes straight into a C-ordered K x T array in the samples' float dtype,
    returned as a MagnitudeSpectrogram with the bytes of magnitude()."""
    if signal.sample_rate != params.sample_rate:
        raise ValueError("signal sample rate does not match frame parameters")
    x = signal.samples
    wl, hop = params.window_len, params.hop
    if x.size < wl:
        raise ValueError("signal shorter than one analysis window")
    n_frames = (x.size - wl) // hop + 1
    w = hann_window(wl).astype(x.dtype, copy=False)
    frames = np.lib.stride_tricks.sliding_window_view(x, wl)[::hop][:n_frames]
    if magnitude:
        out = np.empty((params.n_bins, n_frames), x.dtype)
        for l in range(0, n_frames, FRAME_BLOCK):
            block = np.fft.rfft(frames[l:l + FRAME_BLOCK] * w, axis=1)
            np.abs(block.T, out=out[:, l:l + FRAME_BLOCK])
        return MagnitudeSpectrogram(out, params)
    out = np.empty((n_frames, params.n_bins), np.result_type(x, np.complex64))
    for l in range(0, n_frames, FRAME_BLOCK):
        out[l:l + FRAME_BLOCK] = np.fft.rfft(frames[l:l + FRAME_BLOCK] * w, axis=1)
    return ComplexSpectrogram(out.T, params)


def _overlap_add(out, frames, first, count, hop):
    """Add count frames of wl samples, placed hop apart from frame first on,
    into out, the (T + ceil(wl / hop) - 1) x hop blocks of the output:
    frames is count x wl, or one frame of wl samples repeated count times.
    Block j of a frame (samples j*hop up to (j+1)*hop) lands on output
    block l + j for frame l, so ceil(wl / hop) strided adds cover every
    frame.  They run from the last block to the first, so each output
    sample adds these frames in increasing l; calls over increasing first
    keep that order, the order of a frame-by-frame loop."""
    wl = frames.shape[-1]
    for j in range(-(-wl // hop) - 1, -1, -1):
        block = frames[..., j * hop:(j + 1) * hop]
        out[first + j:first + j + count, :block.shape[-1]] += block


def istft(spec: ComplexSpectrogram) -> Signal:
    """Weighted overlap-add synthesis; inverse of stft on interior samples.
    It follows the values' precision: complex64 values give float32
    samples and complex128 values float64 ones, window and window sum in
    that dtype too.  It transforms values.T, C-ordered for a frames-major
    spectrum, FRAME_BLOCK frames at a time and adds each block into the
    output, so no T x window_len frames array is built; the bytes are a
    frame-by-frame loop's.  The window-sum normalizer is floored in place."""
    params = spec.params
    wl, hop = params.window_len, params.hop
    K, T = spec.values.shape
    w = hann_window(wl).astype(spec.values.real.dtype, copy=False)
    y = np.zeros((T + -(-wl // hop) - 1, hop), w.dtype)  # T + ceil(wl/hop) - 1 blocks
    for l in range(0, T, FRAME_BLOCK):
        # n = wl: for an odd window irfft's default length is 2(K - 1) = wl - 1
        frames = np.fft.irfft(spec.values.T[l:l + FRAME_BLOCK], n=wl, axis=1)
        frames *= w
        _overlap_add(y, frames, l, len(frames), hop)
    wsum = np.zeros_like(y)
    _overlap_add(wsum, w * w, 0, T, hop)
    n = (T - 1) * hop + wl
    y, wsum = y.ravel()[:n], wsum.ravel()[:n]
    y /= np.maximum(wsum, _WSUM_FLOOR, out=wsum)
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
