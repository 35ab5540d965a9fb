"""Time-domain signal handling: WAV I/O, SNR measurement and SNR-controlled mixing.

Only 16-bit PCM mono WAV is supported; sample-rate conversion is out of scope.
"""
from __future__ import annotations

import struct
import wave
from dataclasses import dataclass

import numpy as np

SNR_CAP_DB = 300.0
_PCM_SCALE = 32768.0


class AudioFormatError(ValueError):
    """Unsupported or malformed WAV content."""


@dataclass(frozen=True)
class Signal:
    """Mono samples, nominally in [-1, 1], at sample_rate Hz.  float32 samples
    are kept as given; any other dtype becomes float64."""
    samples: np.ndarray  # float32 or float64
    sample_rate: int

    def __post_init__(self):
        x = np.asarray(self.samples)
        object.__setattr__(self, "samples", x if x.dtype == np.float32
                           else np.asarray(x, dtype=np.float64))
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ValueError("samples must be a non-empty 1-D array")

    def __len__(self):
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def read_wav(path) -> Signal:
    """Read a mono 16-bit PCM WAV file, scaling samples to [-1, 1]."""
    try:
        wf = wave.open(str(path), "rb")
    except FileNotFoundError:
        raise FileNotFoundError(f"no such file: {path}")
    except wave.Error as exc:
        raise AudioFormatError(f"unsupported encoding in {path}: {exc}")
    except (EOFError, RuntimeError, struct.error):  # RuntimeError: a chunk past EOF
        raise AudioFormatError(f"truncated WAV header in {path}")
    with wf:
        if wf.getnchannels() != 1:
            raise AudioFormatError(f"non-mono input: {path} has {wf.getnchannels()} channels")
        if wf.getsampwidth() != 2 or wf.getcomptype() != "NONE":
            raise AudioFormatError(f"unsupported encoding: {path} is not 16-bit PCM")
        n_frames = wf.getnframes()
        raw = wf.readframes(n_frames)
        rate = wf.getframerate()
    if len(raw) != 2 * n_frames:
        raise AudioFormatError(f"truncated WAV data in {path}: {len(raw)} of "
                               f"{2 * n_frames} bytes")
    if n_frames == 0:
        raise AudioFormatError(f"no audio samples in {path}")
    if rate <= 0:
        raise AudioFormatError(f"bad sample rate {rate} Hz in {path}")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / _PCM_SCALE
    return Signal(samples, rate)


def write_wav(signal: Signal, path) -> None:
    """Write 16-bit PCM mono WAV; samples outside [-1, 1] are clipped."""
    x = signal.samples
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot write non-finite samples")
    q = np.clip(np.round(np.clip(x, -1.0, 1.0) * _PCM_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(signal.sample_rate)
        wf.writeframes(q.tobytes())


def snr_db(reference: Signal, estimate: Signal) -> float:
    """10*log10(sum ref^2 / sum (ref-est)^2), capped at +300 dB."""
    if len(reference) != len(estimate):
        raise ValueError("length mismatch between reference and estimate")
    if reference.sample_rate != estimate.sample_rate:
        raise ValueError("sample-rate mismatch between reference and estimate")
    ref_energy = float(np.sum(reference.samples**2))
    if ref_energy == 0.0:
        raise ValueError("reference signal is identically zero")
    err_energy = float(np.sum((reference.samples - estimate.samples) ** 2))
    if err_energy == 0.0:
        return SNR_CAP_DB
    return min(SNR_CAP_DB, float(10.0 * np.log10(ref_energy / err_energy)))


def mix_at_snr(clean: Signal, noise: Signal, target_snr_db: float):
    """Scale noise so the clean/noise power ratio hits the target SNR.

    Noise longer than clean is truncated to the clean length; shorter noise
    is an error (looping would inject artificial periodicity).  The target
    must lie within +-SNR_CAP_DB (check_snr_target), and the scaled noise
    must be finite.
    Returns (noisy, scaled_noise).
    """
    check_snr_target(target_snr_db)
    if clean.sample_rate != noise.sample_rate:
        raise ValueError("sample-rate mismatch between clean and noise")
    if len(noise) < len(clean):
        raise ValueError("noise shorter than clean signal")
    n = noise.samples[: len(clean)]
    # numpy scalars: a divisor that underflows to 0, or a quotient that
    # overflows, gives inf rather than an exception; the check below sees it
    p_clean = np.sum(clean.samples**2)
    p_noise = np.sum(n**2)
    if p_clean == 0.0 or p_noise == 0.0:
        raise ValueError("zero-power input")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scaled = n * np.sqrt(p_clean / (p_noise * 10.0 ** (target_snr_db / 10.0)))
    if not np.all(np.isfinite(scaled)):
        raise ValueError(f"noise scaled to {target_snr_db!r} dB SNR is not finite")
    return (
        Signal(clean.samples + scaled, clean.sample_rate),
        Signal(scaled, clean.sample_rate),
    )


def check_snr_target(target_snr_db: float) -> None:
    """A target SNR must be a number within +-SNR_CAP_DB, the range snr_db
    reports."""
    if not abs(target_snr_db) <= SNR_CAP_DB:  # also NaN
        raise ValueError(f"target SNR {target_snr_db!r} dB is not within "
                         f"+-{SNR_CAP_DB:g} dB")
