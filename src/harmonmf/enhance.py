"""End-to-end enhancement: harmonic + noise dictionary, constrained
factorization of the noisy spectrogram, Wiener reconstruction.  Includes
the Oracle and unconstrained-NMF baselines and the atoms-vs-sparsity sweep.
"""
from __future__ import annotations

import functools
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


@dataclass(frozen=True)
class EnhanceConfig(nmf.SolverSettings):
    """The solver's settings plus the frame, the fundamental band and the
    atom counts: every config-file key but the paths."""
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

    def __post_init__(self):
        super().__post_init__()
        require = self._require
        for name in ("window_ms", "overlap", "f_min", "f_max"):
            require(math.isfinite(getattr(self, name)), "finite", name)
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
        for name in ("m", "p_star", "r", "m_n"):
            require(getattr(self, name) >= 1, "at least 1", name)
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
    coeffs = _start_coeffs(tuple(f0.tolist()), params, config.p_star, config.m,
                           config.seed)
    return nmf.BasisGroup(psi=psi, coeffs=coeffs, kind="speech")


@functools.lru_cache(maxsize=1)
def _start_coeffs(f0: tuple, params: FrameParams, p_star: int, m: int, seed: int):
    """build_speech_atoms' seeded start, memoized like the basis: on the
    basis's key plus m and seed, only the last key's, as one read-only array
    (BasisGroup copies its coefficients, so a solve never writes into it).
    Drawn basis by basis from one seeded stream, over basis l's first
    harmonic_count columns, the columns the basis fills."""
    counts = [harmonic_count(f, params.sample_rate, p_star) for f in f0]
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((len(f0), m, max(counts)))  # first: a huge m fails here
    for l, p in enumerate(counts):
        j = min(_COEFF_JITTER, 0.5 / p)
        coeffs[l, :, :p] = rng.uniform(1 / p - j, 1 / p + j, (m, p))
    coeffs.flags.writeable = False
    return coeffs


def wiener_reconstruct(noisy: ComplexSpectrogram, speech_mag: MagnitudeSpectrogram,
                       noise_mag: MagnitudeSpectrogram) -> ComplexSpectrogram:
    """Scale each noisy bin by the gain s / max(s + n, EPSILON), formed in one
    buffer of the magnitudes' dtype (float32 magnitudes give a float32 gain,
    float64 ones a float64 gain), in place: noisy.values is overwritten with
    the filtered bins, and noisy itself is returned.  Pass a copy to keep
    the unfiltered bins.  For finite s, n >= 0 the rounded s + n is at least
    s, so the gain lies in [0, 1] without a clip; an overflowing s + n gives
    gain 0."""
    if speech_mag.values.shape != noisy.values.shape or \
            noise_mag.values.shape != noisy.values.shape:
        raise ValueError("spectrogram shape mismatch")
    gains = np.add(speech_mag.values, noise_mag.values)
    np.divide(speech_mag.values, np.maximum(gains, nmf.EPSILON, out=gains), out=gains)
    np.multiply(noisy.values, gains, out=noisy.values)
    return noisy


def _spectrum(noisy: Signal, params: FrameParams) -> ComplexSpectrogram:
    """The pipeline's complex64 spectrum of noisy: its n samples in float32
    (exact for read_wav's 16-bit samples), padded by wl - hop zeros before
    and wl - 1 after, so every sample sits in the fully overlapped interior
    and every one of the T = (n + wl - 1) // hop frames holds a sample.
    They are the frames of a (wl, wl) pad less its frames of padding alone:
    the first, and the last when hop divides n + wl.  Deterministic: _run
    analyses noisy twice, for the solve's magnitude and for the Wiener
    step, and gets the same bytes both times."""
    wl, hop = params.window_len, params.hop
    samples = np.pad(noisy.samples.astype(np.float32), (wl - hop, wl - 1))
    return stft(Signal(samples, noisy.sample_rate), params)


def _run(noisy: Signal, speech_atoms: nmf.BasisGroup | int | None,
         shapes: NoiseShapes, config: EnhanceConfig, frozen: bool = False,
         trace: bool = True) -> EnhanceResult:
    """The one pipeline: check that shapes were trained with config's frame
    parameters and that noisy is at config.sr, and only then make the speech
    group, so a refused request builds no basis and draws no column:
    speech_atoms None is the harmonic group of build_speech_atoms, a count
    (any integer, a numpy one too) is that many free columns drawn as
    1 - U[0, 1) from default_rng(config.seed), and a group is solved as it
    is.  Then solve it and the noise atoms from shapes in config.mode
    (frozen: gains only) on the magnitude of _spectrum(noisy), split the
    model at the speech columns, and Wiener-filter; returns exactly
    len(noisy) samples, from the end of _spectrum's leading pad on.
    Everything runs in float32, as the solve does: its input is the
    complex64 spectrum's magnitude as it is, each magnitude is the float32
    D_g X_g (the frames-major (X_g^T D_g^T)^T, in the spectrum's layout,
    differs from it in the last bit at some shapes), and the Wiener gain and
    the ISTFT follow; only the returned samples are cast to float64.  The
    solve holds the magnitude alone: the spectrum is dropped before it and
    analysed again after it (the same bytes, as _spectrum is
    deterministic), into a spectrum of _run's own that the Wiener gain
    filters in place and that is dropped once the ISTFT returns.  No
    speech + noise total is built; the solve's input is dropped as the
    solve returns, its result once the magnitudes are formed: the peak
    grows by about two float64 K-vectors per frame, 2.15 in the solve and
    2.5 in the Wiener step and the ISTFT, which set it past about 14 s of
    input.  The solve's input stays the spectrum's magnitude(), not stft's
    magnitude-only analysis: that one leaves the traced peak as it is (the
    solve sets it) and raised the resident peak of a process serving 10 s
    enhances by 0.3 to 0.4 MB."""
    params = config.frame_params()
    if shapes.params != params:
        raise ValueError("noise shapes were trained with different frame parameters")
    if noisy.sample_rate != config.sr:
        raise ValueError("input sample rate does not match configuration")
    if speech_atoms is None:
        speech_atoms = build_speech_atoms(config, params)
    elif not isinstance(speech_atoms, nmf.BasisGroup):  # a count of free columns
        U = np.random.default_rng(config.seed).random((1, speech_atoms, params.n_bins))
        speech_atoms = nmf.BasisGroup(None, 1.0 - U, "speech")
    groups = [speech_atoms, build_noise_bases(shapes, config.m_n, config.seed)]
    result = nmf.solve(_spectrum(noisy, params).magnitude().values, groups, config,
                       frozen_dictionary=frozen, trace=trace)
    D, X, objective = result.dictionary, result.gains, result.trace
    ms = speech_atoms.n_atoms
    speech, noise = (MagnitudeSpectrogram(D[:, g] @ X[g], params)
                     for g in (slice(None, ms), slice(ms, None)))
    del result, D, X
    denoised = istft(wiener_reconstruct(_spectrum(noisy, params), speech, noise))
    # _spectrum's leading pad; T hop >= n + wl - hop leaves n ISTFT samples past it
    lead = params.window_len - params.hop
    out = denoised.samples[lead:lead + len(noisy)].astype(np.float64)
    return EnhanceResult(Signal(out, config.sr), speech, noise, objective)


def enhance(noisy: Signal, shapes: NoiseShapes, config: EnhanceConfig,
            trace: bool = True) -> EnhanceResult:
    """Constrained enhancement with harmonic speech atoms (lin or dense mode).
    The spectrum, factorization, Wiener filter and ISTFT run in float32;
    the denoised samples are float64.
    With trace=False no objective is computed and the objective trace is
    empty; the output is the same."""
    return _run(noisy, None, shapes, config, trace=trace)


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
    fits it once for all its mixtures of one clean signal.  The fit takes
    the float32 magnitude of clean's samples in float32, analysed without
    building a complex spectrum (see stft)."""
    clean32 = Signal(clean.samples.astype(np.float32), clean.sample_rate)
    D_s = fit_free_dictionary(stft(clean32, config.frame_params(), magnitude=True),
                              oracle_atoms, config.seed)
    return nmf.BasisGroup(psi=None, coeffs=D_s.T[None], kind="speech")


def enhance_plain(noisy: Signal, shapes: NoiseShapes, config: EnhanceConfig,
                  free_atoms: int | None = None, trace: bool = True) -> EnhanceResult:
    """Unconstrained-NMF baseline: free_atoms free speech columns, by default
    config.L * config.m, as many as enhance's harmonic atoms, and the
    trained noise shapes.  _run draws the columns, after its checks, so a
    refused request allocates none however large free_atoms is.  The free
    columns take the same step in either config.mode and add no density
    term.  trace is as in enhance."""
    return _run(noisy, config.L * config.m if free_atoms is None else free_atoms,
                shapes, config, trace=trace)


def sweep_atoms_sparsity(noisy: Signal, clean: Signal, shapes: NoiseShapes,
                         config: EnhanceConfig, L_values, lambda_values,
                         jobs: int = 1) -> list:
    """Dense-mode output SNR for every (L, lambda_s) pair.

    Returns rows (L, lambda_s, total_atoms, output_snr_db) sorted by (L, lambda).
    Uses at most one worker process per cell.
    """
    cells = [replace(config, L=int(L), lambda_s=float(lam), mode="dense")
             for L in L_values for lam in lambda_values]
    run_cell = functools.partial(_sweep_cell, noisy, clean, shapes)
    workers = min(jobs, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_cell, cells))
    else:
        rows = list(map(run_cell, cells))
    return sorted(rows, key=lambda r: (r[0], r[1]))


def _sweep_cell(noisy, clean, shapes, config):
    result = enhance(noisy, shapes, config, trace=False)
    return (config.L, config.lambda_s, config.L * config.m + config.m_n,
            snr_db(clean, result.denoised))

