"""Seeded input generator: a gliding harmonic voice, white or pink noise, and
their mixtures at a set SNR, written as 16-bit mono WAV files.

Everything is derived from the workload seed, so one seed always gives the
same files.  Brown noise is deliberately absent: its energy lies below the
lowest harmonic, so it makes enhancement look trivially good.
"""
from __future__ import annotations

import wave

import numpy as np

SR = 8000
F0_RANGE = (110.0, 200.0)
SNRS_DB = (-5.0, 0.0, 5.0)
NOISE_KINDS = ("white", "pink")
PEAK = 0.9


def voice(rng, seconds, sr=SR):
    """Harmonic voice with 1/k rolloff, f0 gliding over F0_RANGE through a knot
    every 0.5 s, under a syllable envelope (0.15-0.35 s syllables, short gaps)."""
    n = int(round(seconds * sr))
    knots = max(2, int(seconds / 0.5) + 1)
    f0 = np.interp(np.arange(n), np.linspace(0, n - 1, knots),
                   rng.uniform(*F0_RANGE, knots))
    phase = 2.0 * np.pi * np.cumsum(f0) / sr
    x = np.zeros(n)
    for k in range(1, int(0.45 * sr // F0_RANGE[0]) + 1):
        below_nyquist = k * f0 < 0.45 * sr
        x += below_nyquist * np.sin(k * phase) / k
    env = np.zeros(n)
    t = int(rng.uniform(0.02, 0.08) * sr)
    while t < n:
        length = int(rng.uniform(0.15, 0.35) * sr)
        seg = np.hanning(length)[: n - t]
        env[t:t + seg.size] = seg
        t += length + int(rng.uniform(0.05, 0.15) * sr)
    return x * env


def noise(rng, kind, seconds, sr=SR):
    """Unit-RMS white noise, or pink noise shaped by 1/sqrt(f) in the FFT domain."""
    n = int(round(seconds * sr))
    w = rng.standard_normal(n)
    if kind == "pink":
        spec = np.fft.rfft(w)
        f = np.arange(spec.size)
        spec[0] = 0.0
        spec[1:] /= np.sqrt(f[1:])
        w = np.fft.irfft(spec, n)
    elif kind != "white":
        raise ValueError(f"unknown noise kind {kind!r}")
    return w / np.sqrt(np.mean(w * w))


def mix(clean, noise_samples, snr_db):
    """(clean, noisy) scaled together so the noisy peak is PEAK."""
    p_clean = np.mean(clean * clean)
    p_noise = np.mean(noise_samples * noise_samples)
    g = np.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    noisy = clean + g * noise_samples
    scale = PEAK / np.abs(noisy).max()
    return clean * scale, noisy * scale


def quantize(x):
    return np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")


def write_wav(path, x, sr=SR):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(sr)
        wf.writeframes(quantize(x).tobytes())


def read_wav(path):
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getnchannels() != 1 or wf.getsampwidth() != 2:
                raise ValueError(f"{path}: not 16-bit mono")
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
