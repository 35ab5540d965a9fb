"""Constrained dictionary construction: harmonic atom bases from the
sinusoidal speech-production model, and noise atom bases from spectral
shapes trained offline on noise-only audio.
"""
from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from . import nmf
from .stft import FrameParams, MagnitudeSpectrogram, WindowSpectrum

AMPLITUDE_FLOOR = 1e-8
COLUMN_TRUNCATION = 1e-4
FREE_FIT_ITERATIONS = 100
SHAPES_L1_TOLERANCE = 1e-9
_SHAPES_MAGIC = b"NSHP"
_SHAPES_HEADER = struct.Struct("<IIdII")  # K, r, sample_rate, window_len, hop


@dataclass(frozen=True)
class NoiseShapes:
    n_matrix: np.ndarray   # K x r, columns unit l1
    params: FrameParams


def fundamental_grid(f_min: float, f_max: float, count: int,
                     sample_rate: float) -> np.ndarray:
    """count equally spaced fundamentals in Hz, endpoints inclusive."""
    if not (0 < f_min < f_max < sample_rate / 2):
        raise ValueError("fundamental bounds must satisfy 0 < f_min < f_max < sr/2")
    if count < 2:
        raise ValueError("grid needs at least 2 points")
    return np.linspace(f_min, f_max, count)


def harmonic_amplitudes(fundamental, p: int) -> np.ndarray:
    """c_k = sinc^2(k*w0/2), unnormalized sinc, floored to avoid dead harmonics;
    a column of fundamentals w0 gives one row of p per fundamental."""
    if not np.all((0 < fundamental) & (fundamental < np.pi)):
        raise ValueError("fundamental must be in (0, pi) rad/sample")
    if p < 1:
        raise ValueError("need at least one harmonic")
    k = np.arange(1, p + 1)
    x = k * fundamental / 2.0
    c = np.sinc(x / np.pi) ** 2  # np.sinc is sin(pi t)/(pi t)
    return np.maximum(c, AMPLITUDE_FLOOR)


def harmonic_count(fundamental_hz: float, sample_rate: float, p_star: int) -> int:
    """Number of harmonics kept below Nyquist: min(p_star, floor(sr/(2*f0)))."""
    if fundamental_hz <= 0:
        raise ValueError("fundamental must be positive")
    return int(min(p_star, sample_rate // (2.0 * fundamental_hz)))


def build_harmonic_basis(fundamentals_hz, params: FrameParams,
                         p_star: int) -> np.ndarray:
    """L x K x p bases: column k of basis l is the window spectrum centered on
    harmonic k of f0_l, scaled by the sinc^2 amplitude profile, for its
    harmonic_count(f0_l) columns, zero-padded to the largest count p; entries
    below COLUMN_TRUNCATION of their column's peak are zeroed for sparsity.
    The values are computed in float64 and returned in float32, the dtype
    of the solve that uses them, so a float64 caller gets float32-rounded
    values.  Memoized on (fundamentals as floats, params, p_star): equal
    keys share one read-only array.  Only the last key's L*K*p float32
    values are kept, 0.5 MB at the default 33x129x30; a new key replaces
    the entry."""
    return _harmonic_basis(tuple(np.asarray(fundamentals_hz, dtype=float).tolist()),
                           params, p_star)


@functools.lru_cache(maxsize=1)
def _harmonic_basis(fundamentals_hz: tuple, params: FrameParams, p_star: int):
    """build_harmonic_basis's memo: amplitudes, window spectrum and
    truncation in float64, then one cast of the finished bases to float32,
    the dtype the solve runs in."""
    counts = [harmonic_count(f, params.sample_rate, p_star) for f in fundamentals_hz]
    k = np.arange(1, max(counts) + 1)
    w0 = 2.0 * np.pi * np.asarray(fundamentals_hz)[:, None] / params.sample_rate
    c = harmonic_amplitudes(w0, k.size) * (k <= np.array(counts)[:, None])
    omegas = 2.0 * np.pi * np.arange(params.n_bins)[:, None] / params.window_len
    psi = WindowSpectrum(params).evaluate(omegas - (k * w0)[:, None]) * c[:, None]
    psi[psi < COLUMN_TRUNCATION * psi.max(axis=1, keepdims=True)] = 0.0
    psi = psi.astype(np.float32)
    psi.flags.writeable = False
    return psi


def _free_solve(mag: MagnitudeSpectrogram, columns: np.ndarray, iterations: int,
                seed: int, frozen: bool = False) -> nmf.SolveResult:
    """The free-column fit: lin KL-NMF of mag over the K x n columns, with no
    penalty, in float32 (solve follows Y's dtype; a float32 mag is not
    copied) and without a trace; frozen solves the gains only."""
    group = nmf.BasisGroup(psi=None, coeffs=columns.T[None], kind="noise")
    settings = nmf.SolverSettings(lambda_s=0, lambda_n=0, alpha=0,
                                  iterations=iterations, mode="lin", seed=seed)
    return nmf.solve(mag.values.astype(np.float32, copy=False), [group], settings,
                     frozen_dictionary=frozen, trace=False)


def fit_free_dictionary(mag: MagnitudeSpectrogram, n_atoms: int,
                        seed: int) -> np.ndarray:
    """Fit n_atoms unconstrained columns to a spectrogram by _free_solve,
    FREE_FIT_ITERATIONS iterations from a seeded uniform (0, 1] start;
    returns K x n_atoms in float64.  The fit runs in float32; callers
    normalize or solve further in float64."""
    start = 1.0 - np.random.default_rng(seed).random((n_atoms, mag.values.shape[0]))
    return _free_solve(mag, start.T, FREE_FIT_ITERATIONS,
                       seed).dictionary.astype(np.float64)


def shapes_fit(shapes: NoiseShapes, mag: MagnitudeSpectrogram, iterations: int,
               seed: int) -> float:
    """KL divergence of a gains-only refit (_free_solve, frozen) at its final
    point: how well the trained shapes span the noise, the KL train-noise
    prints.  The fit and every enhance use the shapes in float32 too; the KL
    of the float32 model D X is accumulated in float64, and lies within 1e-6
    relative of a float64 refit's, below the printed 6 digits."""
    result = _free_solve(mag, shapes.n_matrix, iterations, seed, frozen=True)
    return nmf.kl_divergence(mag.values, result.dictionary @ result.gains)


def train_noise_shapes(noise_mag: MagnitudeSpectrogram, r: int,
                       seed: int = 0) -> NoiseShapes:
    """Fit r spectral shapes to a noise spectrogram by unconstrained KL-NMF
    (fit_free_dictionary, in float32); the columns are l1-normalized in
    float64, so each sums to 1 to float64 rounding."""
    if r < 1:
        raise ValueError("need at least one noise shape")
    if noise_mag.values.shape[1] < r:
        raise ValueError("noise spectrogram has fewer frames than shapes")
    if not np.any(noise_mag.values > 0):
        raise ValueError("noise spectrogram is identically zero")
    shapes = fit_free_dictionary(noise_mag, r, seed)
    sums = shapes.sum(axis=0)
    if np.any(sums <= 0):
        raise ValueError("noise training produced an empty shape")
    return NoiseShapes(shapes / sums, noise_mag.params)


def build_noise_bases(shapes: NoiseShapes, m_n: int, seed: int) -> nmf.BasisGroup:
    """One group of m_n noise atoms sharing the trained shape matrix as basis.

    With m_n equal to the shape count each atom starts near one shape
    (perturbed identity); otherwise coefficients start uniform random.
    Strictly positive starts keep multiplicative updates from locking zeros.
    """
    if m_n < 1:
        raise ValueError("need at least one noise atom")
    r = shapes.n_matrix.shape[1]
    rng = np.random.default_rng(seed)
    if m_n == r:
        coeffs = rng.uniform(0.0, 0.01, (1, r, r)) + np.eye(r)
    else:
        coeffs = 1.0 - rng.random((1, m_n, r))
    return nmf.BasisGroup(psi=shapes.n_matrix[None], coeffs=coeffs, kind="noise")


def save_noise_shapes(shapes: NoiseShapes, path) -> None:
    """Little-endian binary: magic, u32 K, u32 r, f64 sample_rate,
    u32 window_len, u32 hop, then K*r float64 column-major."""
    K, r = shapes.n_matrix.shape
    p = shapes.params
    header = _SHAPES_MAGIC + _SHAPES_HEADER.pack(K, r, float(p.sample_rate),
                                                 p.window_len, p.hop)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.asfortranarray(shapes.n_matrix, dtype="<f8").tobytes(order="F"))


def load_noise_shapes(path) -> NoiseShapes:
    """Read a file written by save_noise_shapes.  A short header, a body of
    other than K*r values, a fractional rate, degenerate frame parameters, a
    K other than the window's bin count, a negative or non-finite entry, or a
    column sum off 1 by more than SHAPES_L1_TOLERANCE (1e-9, the tolerance
    the benchmark's own .nshp check uses) raises ValueError naming the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:len(_SHAPES_MAGIC)] != _SHAPES_MAGIC:
        raise ValueError(f"not a noise-shapes file: {path}")
    body_start = len(_SHAPES_MAGIC) + _SHAPES_HEADER.size
    if len(blob) < body_start:
        raise ValueError(f"corrupt noise-shapes file {path}: header cut short")
    K, r, sample_rate, window_len, hop = _SHAPES_HEADER.unpack_from(
        blob, len(_SHAPES_MAGIC))
    if r < 1:
        raise ValueError(f"corrupt noise-shapes file {path}: no shapes")
    body_len = len(blob) - body_start
    if body_len != K * r * 8:
        raise ValueError(f"corrupt noise-shapes file {path}: body is {body_len} "
                         f"bytes, {K} x {r} shapes need {K * r * 8}")
    if not sample_rate.is_integer():  # also false for inf and nan
        raise ValueError(f"corrupt noise-shapes file {path}: bad sample rate")
    try:
        params = FrameParams(window_len, hop, int(sample_rate))
    except ValueError as exc:
        raise ValueError(f"corrupt noise-shapes file {path}: {exc}") from None
    if K != params.n_bins:
        raise ValueError(f"corrupt noise-shapes file {path}: K={K} does not match window")
    data = np.frombuffer(blob, dtype="<f8", offset=body_start)
    if not np.all(np.isfinite(data)) or np.any(data < 0):
        raise ValueError(f"corrupt noise-shapes file {path}: "
                         "negative or non-finite entries")
    n_matrix = data.reshape((K, r), order="F").copy()
    if np.any(np.abs(n_matrix.sum(axis=0) - 1.0) > SHAPES_L1_TOLERANCE):
        raise ValueError(f"corrupt noise-shapes file {path}: "
                         "a shape column does not sum to 1")
    return NoiseShapes(n_matrix, params)
