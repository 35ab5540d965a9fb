"""End-to-end enhancement: harmonic + noise dictionary, constrained
factorization of the noisy spectrogram, Wiener reconstruction.  Includes
the Oracle and unconstrained-NMF baselines and the atoms-vs-sparsity sweep.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import nmf
from .dictionary import (NoiseShapes, build_harmonic_basis, build_noise_bases,
                         fit_free_dictionary, fundamental_grid)
from .signal_io import Signal, snr_db
from .stft import (ComplexSpectrogram, FrameParams, MagnitudeSpectrogram,
                   default_frame_params, istft, stft)

_COEFF_JITTER = 0.001
_PGM_FLOOR = 1e-10
_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class EnhanceConfig:
    sr: int = 8000
    window_ms: float = 32.0
    overlap: float = 0.75
    f_min: float = 80.0
    f_max: float = 400.0
    L: int = 33
    m: int = 4
    p_star: int = 30
    r: int = 16
    m_n: int = 16
    lambda_s: float = 0.2
    lambda_n: float = 0.0
    alpha: float = 10.0
    iterations: int = 25
    mode: str = "dense"
    seed: int = 0

    def __post_init__(self):
        def require(ok, what, name):
            if not ok:
                raise ValueError(f"{name} must be {what}, got {getattr(self, name)!r}")

        for name in ("window_ms", "overlap", "f_min", "f_max"):
            require(math.isfinite(getattr(self, name)), "finite", name)
        for name in ("lambda_s", "lambda_n", "alpha"):  # the solve is float32
            require(0 <= getattr(self, name) <= _F32_MAX, f"in [0, {_F32_MAX:.8g}]",
                    name)
        # sr must also fit a float: sr / 2 below overflows otherwise
        require(1 <= self.sr <= sys.float_info.max,
                f"in [1, {sys.float_info.max:.3g}]", "sr")
        require(self.window_ms > 0, "positive", "window_ms")
        require(0 < self.overlap < 1, "in (0, 1)", "overlap")
        require(0 < 2.0 * math.pi * self.f_min / self.sr,  # as the bases evaluate it
                "positive in rad/sample", "f_min")
        require(self.f_min < self.f_max < self.sr / 2  # 2 pi f / sr may round to pi
                and 2.0 * math.pi * self.f_max / self.sr < math.pi,
                "in (f_min, sr/2) and below pi rad/sample", "f_max")
        require(self.L >= 2, "at least 2", "L")
        for name in ("m", "p_star", "r", "m_n", "iterations"):
            require(getattr(self, name) >= 1, "at least 1", name)
        require(self.mode in ("lin", "dense"), "'lin' or 'dense'", "mode")
        require(self.seed >= 0, "non-negative", "seed")
        try:
            # a Hann window of 2 samples is [0, 0]; the .nshp header stores
            # window_len and hop (<= window_len) as u32
            if not 3 <= self.frame_params().window_len < 2**32:
                raise ValueError
        except (ValueError, OverflowError):  # OverflowError: sr * window_ms is inf
            raise ValueError(f"window_ms = {self.window_ms!r} with overlap = "
                             f"{self.overlap!r} gives a degenerate frame at "
                             f"sr = {self.sr!r}") from None

    def frame_params(self) -> FrameParams:
        return default_frame_params(self.sr, self.window_ms, self.overlap)

    def solver_settings(self) -> nmf.SolverSettings:
        return nmf.SolverSettings(lambda_speech=self.lambda_s,
                                  lambda_noise=self.lambda_n,
                                  alpha=self.alpha,
                                  iterations=self.iterations,
                                  seed=self.seed)


@dataclass
class EnhanceResult:
    denoised: Signal
    speech_magnitude: MagnitudeSpectrogram
    noise_magnitude: MagnitudeSpectrogram
    objective_trace: list = field(default_factory=list)


def build_speech_atoms(config: EnhanceConfig, params: FrameParams) -> nmf.BasisGroup:
    """One group of m atoms per grid fundamental over the L stacked harmonic
    bases, started near-uniform on each basis's own p harmonics: uniform in
    1/p +- min(_COEFF_JITTER, 0.5/p), so every start is positive however
    large p is (the jitter is _COEFF_JITTER for p <= 500)."""
    f0 = fundamental_grid(config.f_min, config.f_max, config.L, config.sr)
    psi = build_harmonic_basis(f0, params, config.p_star)
    rng = np.random.default_rng(config.seed)
    coeffs = np.zeros((config.L, config.m, psi.shape[2]))  # first: a huge m fails here
    # a basis's nonzero columns, its first harmonic_count (p of them); psi >= 0,
    # so they are those of positive sum, a product 5x cheaper than psi.any(axis=1)
    used = np.broadcast_to((np.ones(psi.shape[1]) @ psi > 0)[:, None], coeffs.shape)
    p = used[:, :1].sum(axis=2, keepdims=True)
    jitter = np.minimum(_COEFF_JITTER, 0.5 / p)
    lo, hi = (np.broadcast_to(b, coeffs.shape)[used]
              for b in (1.0 / p - jitter, 1.0 / p + jitter))
    coeffs[used] = lo + (hi - lo) * rng.random(lo.size)  # as rng.uniform draws
    return nmf.BasisGroup(psi=psi, coeffs=coeffs, kind="speech")


def wiener_reconstruct(noisy: ComplexSpectrogram, speech_mag: MagnitudeSpectrogram,
                       noise_mag: MagnitudeSpectrogram) -> ComplexSpectrogram:
    """Scale each noisy bin by the gain s / max(s + n, EPSILON), formed in one
    float64 buffer, in place: noisy.values is overwritten with the filtered
    bins, and noisy itself is returned.  Pass a copy to keep the unfiltered
    bins.  For finite s, n >= 0 the rounded s + n is
    at least s, so the gain lies in [0, 1] without a clip; an overflowing
    s + n gives gain 0."""
    if speech_mag.values.shape != noisy.values.shape or \
            noise_mag.values.shape != noisy.values.shape:
        raise ValueError("spectrogram shape mismatch")
    gains = np.add(speech_mag.values, noise_mag.values)
    np.divide(speech_mag.values, np.maximum(gains, nmf.EPSILON, out=gains), out=gains)
    np.multiply(noisy.values, gains, out=noisy.values)
    return noisy


def _spectrum(noisy: Signal, params: FrameParams) -> ComplexSpectrogram:
    """The pipeline's spectrum of noisy: its n samples padded by wl - hop
    zeros before and wl - 1 after, so every sample sits in the fully
    overlapped interior and every one of the T = (n + wl - 1) // hop frames
    holds a sample.  They are the frames of a (wl, wl) pad less its frames
    of padding alone: the first, and the last when hop divides n + wl."""
    wl, hop = params.window_len, params.hop
    return stft(Signal(np.pad(noisy.samples, (wl - hop, wl - 1)), noisy.sample_rate),
                params)


def _run(noisy: Signal, speech_atoms: nmf.BasisGroup, shapes: NoiseShapes,
         config: EnhanceConfig, frozen: bool = False,
         trace: bool = True) -> EnhanceResult:
    """The one pipeline: check that shapes were trained with config's frame
    parameters and that noisy is at config.sr (its callers check neither),
    then solve speech_atoms and the noise atoms from shapes in config.mode
    (frozen: gains only) on _spectrum(noisy), split the model at the speech
    columns, and Wiener-filter; returns exactly len(noisy) samples, from the
    end of _spectrum's leading pad on.  The
    spectrum is _run's own, so the Wiener gain filters it in place.  The
    gains are cast to float64 one group at a time, and each magnitude is
    D_g X_g: the frames-major (X_g^T D_g^T)^T, in the spectrum's layout,
    differs from it in the last bit at some shapes.  No speech + noise
    total is built, and the solve result is dropped once cast: the peak
    grows by about five float64 K-vectors per frame."""
    params = config.frame_params()
    if shapes.params != params:
        raise ValueError("noise shapes were trained with different frame parameters")
    if noisy.sample_rate != config.sr:
        raise ValueError("input sample rate does not match configuration")
    spec = _spectrum(noisy, params)
    groups = [speech_atoms, build_noise_bases(shapes, config.m_n, config.seed)]
    # the solve runs in float32; the Wiener mask and the ISTFT in float64
    result = nmf.solve(spec.magnitude().values.astype(np.float32), groups,
                       config.solver_settings(), mode=config.mode,
                       frozen_dictionary=frozen, trace=trace)
    D, objective = result.dictionary.astype(np.float64), result.trace
    ms = speech_atoms.n_atoms
    speech, noise = (MagnitudeSpectrogram(D[:, g] @ result.gains[g].astype(np.float64),
                                          params)
                     for g in (slice(None, ms), slice(ms, None)))
    del result, D
    spec = wiener_reconstruct(spec, speech, noise)
    # _spectrum's leading pad; T hop >= n + wl - hop leaves n ISTFT samples past it
    lead = params.window_len - params.hop
    out = istft(spec).samples[lead:lead + len(noisy)]
    return EnhanceResult(Signal(out, config.sr), speech, noise, objective)


def enhance(noisy: Signal, shapes: NoiseShapes, config: EnhanceConfig,
            trace: bool = True) -> EnhanceResult:
    """Constrained enhancement with harmonic speech atoms (lin or dense mode).
    The factorization runs in float32, the Wiener filter in float64.
    With trace=False no objective is computed and the objective trace is
    empty; the output is the same."""
    return _run(noisy, build_speech_atoms(config, config.frame_params()), shapes,
                config, trace=trace)


def enhance_oracle(noisy: Signal, speech: nmf.BasisGroup, shapes: NoiseShapes,
                   config: EnhanceConfig, trace: bool = True) -> EnhanceResult:
    """Baseline with a frozen speech group, the one oracle_speech_atoms fits
    on the clean signal; only the gains adapt.  Its free columns take the
    same step in either config.mode and add no density term.  trace is as in
    enhance."""
    return _run(noisy, speech, shapes, config, frozen=True, trace=trace)


def oracle_speech_atoms(clean: Signal, config: EnhanceConfig,
                        oracle_atoms: int = 32) -> nmf.BasisGroup:
    """The oracle's speech group: oracle_atoms free columns fit on the clean
    signal by fit_free_dictionary.  It depends on clean and config only, and
    a frozen solve leaves its coefficients' values as they are, so evaluate
    fits it once for all its mixtures of one clean signal."""
    D_s = fit_free_dictionary(stft(clean, config.frame_params()).magnitude(),
                              oracle_atoms, config.seed)
    return nmf.BasisGroup(psi=None, coeffs=D_s.T[None], kind="speech")


def enhance_plain(noisy: Signal, shapes: NoiseShapes, config: EnhanceConfig,
                  free_atoms: int = 132, trace: bool = True) -> EnhanceResult:
    """Unconstrained-NMF baseline: free speech columns, trained noise shapes.
    The free columns take the same step in either config.mode and add no
    density term.  trace is as in enhance."""
    rng = np.random.default_rng(config.seed)
    coeffs = 1.0 - rng.random((1, free_atoms, config.frame_params().n_bins))
    speech = nmf.BasisGroup(psi=None, coeffs=coeffs, kind="speech")
    return _run(noisy, speech, shapes, config, trace=trace)


def sweep_atoms_sparsity(noisy: Signal, clean: Signal, shapes: NoiseShapes,
                         config: EnhanceConfig, L_values, lambda_values,
                         jobs: int = 1) -> list:
    """Dense-mode output SNR for every (L, lambda_s) pair.

    Returns rows (L, lambda_s, total_atoms, output_snr_db) sorted by (L, lambda).
    Uses at most one worker process per cell.
    """
    cells = [replace(config, L=int(L), lambda_s=float(lam), mode="dense")
             for L in L_values for lam in lambda_values]
    args = [(noisy, clean, shapes, cell) for cell in cells]
    workers = min(jobs, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, args))
    else:
        rows = [_sweep_cell(a) for a in args]
    return sorted(rows, key=lambda r: (r[0], r[1]))


def _sweep_cell(arg):
    noisy, clean, shapes, config = arg
    result = enhance(noisy, shapes, config, trace=False)
    return (config.L, config.lambda_s, config.L * config.m + config.m_n,
            snr_db(clean, result.denoised))


def write_sweep_csv(rows, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("L,lambda_s,total_atoms,output_snr_db\n")
        for L, lam, n_atoms, out_snr in rows:
            fh.write(f"{L},{lam!r},{n_atoms},{out_snr!r}\n")


def write_pgm(mag: MagnitudeSpectrogram, path) -> None:
    """Log-magnitude spectrogram, floored at _PGM_FLOOR, as binary 8-bit PGM,
    min-max normalized, frequency increasing from the bottom row up."""
    logm = np.log10(np.maximum(mag.values, _PGM_FLOOR))
    lo, hi = logm.min(), logm.max()
    scaled = np.zeros_like(logm) if hi == lo else (logm - lo) / (hi - lo)
    img = np.flipud(np.round(scaled * 255).astype(np.uint8))
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


def write_magnitude_csv(mag: MagnitudeSpectrogram, path) -> None:
    """Raw magnitudes, one row per frequency bin."""
    np.savetxt(path, mag.values, delimiter=",", newline="\n")
