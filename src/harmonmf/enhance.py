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
                         fit_free_dictionary, fundamental_grid, harmonic_count)
from .signal_io import Signal, snr_db
from .stft import (ComplexSpectrogram, FrameParams, MagnitudeSpectrogram,
                   default_frame_params, istft, stft)

_COEFF_JITTER = 0.001
_PGM_FLOOR = 1e-10


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

        for name in ("window_ms", "overlap", "f_min", "f_max",
                     "lambda_s", "lambda_n", "alpha"):
            require(math.isfinite(getattr(self, name)), "finite", name)
        # sr must also fit a float: sr / 2 below overflows otherwise
        require(1 <= self.sr <= sys.float_info.max,
                f"in [1, {sys.float_info.max:.3g}]", "sr")
        require(self.window_ms > 0, "positive", "window_ms")
        require(0 < self.overlap < 1, "in (0, 1)", "overlap")
        require(0 < self.f_min, "positive", "f_min")
        require(self.f_min < self.f_max < self.sr / 2, "in (f_min, sr/2)", "f_max")
        require(self.L >= 2, "at least 2", "L")
        for name in ("m", "p_star", "r", "m_n", "iterations"):
            require(getattr(self, name) >= 1, "at least 1", name)
        for name in ("lambda_s", "lambda_n", "alpha"):
            require(getattr(self, name) >= 0, "non-negative", name)
        require(self.mode in ("lin", "dense"), "'lin' or 'dense'", "mode")
        require(self.seed >= 0, "non-negative", "seed")
        try:
            # the .nshp header stores window_len and hop (<= window_len) as u32
            if self.frame_params().window_len >= 2**32:
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
    coeffs = np.zeros((config.L, config.m, psi.shape[2]))
    for l, f in enumerate(f0):
        p = harmonic_count(f, config.sr, config.p_star)
        jitter = min(_COEFF_JITTER, 0.5 / p)
        coeffs[l, :, :p] = rng.uniform(1.0 / p - jitter, 1.0 / p + jitter,
                                       (config.m, p))
    return nmf.BasisGroup(psi=psi, coeffs=coeffs, kind="speech")


def wiener_reconstruct(noisy: ComplexSpectrogram, speech_mag: MagnitudeSpectrogram,
                       total_mag: MagnitudeSpectrogram) -> ComplexSpectrogram:
    """Scale each noisy bin by speech/(speech+noise); gains clipped to [0, 1]."""
    if speech_mag.values.shape != noisy.values.shape or \
            total_mag.values.shape != noisy.values.shape:
        raise ValueError("spectrogram shape mismatch")
    gains = speech_mag.values / np.maximum(total_mag.values, nmf.EPSILON)
    np.clip(gains, 0.0, 1.0, out=gains)
    return ComplexSpectrogram(noisy.values * gains, noisy.params)


def _check_shapes(shapes: NoiseShapes, params: FrameParams):
    if shapes.params != params:
        raise ValueError("noise shapes were trained with different frame parameters")


def _run(noisy: Signal, groups: list, config: EnhanceConfig, mode: str,
         frozen: bool = False, trace: bool = True) -> EnhanceResult:
    params = config.frame_params()
    if noisy.sample_rate != config.sr:
        raise ValueError("input sample rate does not match configuration")
    # pad so every input sample sits in the fully overlapped interior region,
    # where Wiener-filtered overlap-add is well conditioned
    wl = params.window_len
    n = len(noisy)
    padded = Signal(np.pad(noisy.samples, (wl, wl)), config.sr)
    spec = stft(padded, params)
    Y = spec.magnitude()
    # the solve runs in float32; the Wiener mask and the ISTFT in float64
    result = nmf.solve(Y.values.astype(np.float32), groups,
                       config.solver_settings(), mode=mode,
                       frozen_dictionary=frozen, trace=trace)
    D, X = result.dictionary.astype(np.float64), result.gains.astype(np.float64)
    ms = nmf.speech_count(groups)
    speech = MagnitudeSpectrogram(D[:, :ms] @ X[:ms], params)
    noise = MagnitudeSpectrogram(D[:, ms:] @ X[ms:], params)
    total = MagnitudeSpectrogram(speech.values + noise.values, params)
    filtered = wiener_reconstruct(spec, speech, total)
    out = istft(filtered).samples[wl:]
    if out.size < n:
        out = np.pad(out, (0, n - out.size))
    denoised = Signal(out[:n], config.sr)
    return EnhanceResult(denoised, speech, noise, result.trace)


def enhance(noisy: Signal, shapes: NoiseShapes, config: EnhanceConfig,
            trace: bool = True) -> EnhanceResult:
    """Constrained enhancement with harmonic speech atoms (lin or dense mode).
    The factorization runs in float32, the Wiener filter in float64.
    With trace=False no objective is computed and the objective trace is
    empty; the output is the same."""
    params = config.frame_params()
    _check_shapes(shapes, params)
    groups = [build_speech_atoms(config, params),
              build_noise_bases(shapes, config.m_n, config.seed)]
    return _run(noisy, groups, config, config.mode, trace=trace)


def enhance_oracle(noisy: Signal, clean: Signal, shapes: NoiseShapes,
                   config: EnhanceConfig, oracle_atoms: int = 32,
                   trace: bool = True) -> EnhanceResult:
    """Baseline with the speech dictionary fit on the clean signal and frozen;
    only the gains adapt.  trace is as in enhance."""
    if len(clean) != len(noisy) or clean.sample_rate != noisy.sample_rate:
        raise ValueError("clean and noisy signals must be aligned")
    params = config.frame_params()
    _check_shapes(shapes, params)
    clean_mag = stft(clean, params).magnitude()
    D_s = fit_free_dictionary(clean_mag, oracle_atoms, config.seed)
    groups = [nmf.BasisGroup(psi=None, coeffs=D_s.T[None], kind="speech"),
              build_noise_bases(shapes, config.m_n, config.seed)]
    return _run(noisy, groups, config, "lin", frozen=True, trace=trace)


def enhance_plain(noisy: Signal, shapes: NoiseShapes, config: EnhanceConfig,
                  free_atoms: int = 132, trace: bool = True) -> EnhanceResult:
    """Unconstrained-NMF baseline: free speech columns, trained noise shapes.
    trace is as in enhance."""
    params = config.frame_params()
    _check_shapes(shapes, params)
    rng = np.random.default_rng(config.seed)
    K = params.n_bins
    groups = [nmf.BasisGroup(psi=None, coeffs=1.0 - rng.random((1, free_atoms, K)),
                             kind="speech"),
              build_noise_bases(shapes, config.m_n, config.seed)]
    return _run(noisy, groups, config, "lin", trace=trace)


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
