import math
import re
import wave

import numpy as np
import pytest
from hypothesis import given, strategies as st

from harmonmf.signal_io import (AudioFormatError, Signal, mix_at_snr, read_wav,
                                snr_db, write_wav)

Q = 1.0 / 32768.0


def test_read_one_second_mono(tmp_path):
    path = tmp_path / "a.wav"
    write_wav(Signal(np.zeros(8000), 8000), path)
    sig = read_wav(path)
    assert len(sig) == 8000
    assert sig.sample_rate == 8000


def test_stereo_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(8000)
        wf.writeframes(b"\x00\x00" * 200)
    with pytest.raises(AudioFormatError, match="non-mono"):
        read_wav(path)


def test_8bit_rejected(tmp_path):
    path = tmp_path / "u8.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(1)
        wf.setframerate(8000)
        wf.writeframes(b"\x80" * 100)
    with pytest.raises(AudioFormatError, match="16-bit"):
        read_wav(path)


@pytest.mark.parametrize("cut, message", [(4, "truncated WAV header"),
                                          (1001, "truncated WAV data")])
def test_truncated_rejected(tmp_path, cut, message):
    path = tmp_path / "cut.wav"
    write_wav(Signal(np.zeros(8000), 8000), path)
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(AudioFormatError, match=message):
        read_wav(path)


def test_empty_wav_names_its_file(tmp_path):
    path = tmp_path / "empty.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(8000)
    with pytest.raises(AudioFormatError,
                       match=f"no audio samples in {re.escape(str(path))}"):
        read_wav(path)


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_wav(tmp_path / "nope.wav")


def test_roundtrip_quantization_bound(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, 4000)
    path = tmp_path / "rt.wav"
    write_wav(Signal(x, 8000), path)
    back = read_wav(path)
    assert np.max(np.abs(back.samples - x)) <= Q


def test_write_clips(tmp_path):
    path = tmp_path / "clip.wav"
    write_wav(Signal(np.full(100, 2.0), 8000), path)
    back = read_wav(path)
    assert np.all(np.abs(back.samples - 1.0) <= Q)


def test_write_half(tmp_path):
    path = tmp_path / "half.wav"
    write_wav(Signal(np.full(100, 0.5), 8000), path)
    back = read_wav(path)
    assert np.max(np.abs(back.samples - 0.5)) <= Q


def test_write_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        write_wav(Signal(np.array([0.0, np.nan]), 8000), tmp_path / "bad.wav")


def test_snr_perfect_estimate_capped():
    ref = Signal(np.sin(np.arange(1000) * 0.1), 8000)
    assert snr_db(ref, ref) == 300.0


def test_snr_silence_is_zero_db():
    ref = Signal(np.sin(np.arange(1000) * 0.1), 8000)
    est = Signal(np.zeros(1000), 8000)
    assert snr_db(ref, est) == pytest.approx(0.0, abs=1e-12)


def test_snr_monte_carlo_10db():
    rng = np.random.default_rng(42)
    ref = Signal(rng.standard_normal(20000), 8000)
    est = Signal(ref.samples + rng.standard_normal(20000) * np.sqrt(0.1), 8000)
    assert snr_db(ref, est) == pytest.approx(10.0, abs=0.5)


def test_snr_errors():
    a = Signal(np.ones(10), 8000)
    with pytest.raises(ValueError, match="length"):
        snr_db(a, Signal(np.ones(11), 8000))
    with pytest.raises(ValueError, match="zero"):
        snr_db(Signal(np.zeros(10), 8000), a)


@given(st.floats(min_value=0.01, max_value=100.0))
def test_snr_scale_invariant(scale):
    rng = np.random.default_rng(1)
    ref = rng.standard_normal(500)
    est = ref + rng.standard_normal(500) * 0.3
    base = snr_db(Signal(ref, 8000), Signal(est, 8000))
    scaled = snr_db(Signal(ref * scale, 8000), Signal(est * scale, 8000))
    assert scaled == pytest.approx(base, abs=1e-9)


@pytest.mark.parametrize("target", [-5.0, 0.0, 5.0, 15.0])
def test_mix_hits_target_snr(target):
    rng = np.random.default_rng(3)
    clean = Signal(rng.standard_normal(4000), 8000)
    noise = Signal(rng.standard_normal(5000), 8000)
    _, scaled = mix_at_snr(clean, noise, target)
    measured = 10 * np.log10(np.sum(clean.samples**2) / np.sum(scaled.samples**2))
    assert measured == pytest.approx(target, abs=1e-9)


def test_mix_minus5_noise_power():
    rng = np.random.default_rng(3)
    clean = Signal(rng.standard_normal(4000), 8000)
    noise = Signal(rng.standard_normal(4000), 8000)
    _, scaled = mix_at_snr(clean, noise, -5.0)
    ratio = np.sum(scaled.samples**2) / np.sum(clean.samples**2)
    assert ratio == pytest.approx(10**0.5, rel=1e-9)


def test_mix_300db_silences_noise():
    rng = np.random.default_rng(3)
    clean = Signal(rng.standard_normal(1000), 8000)
    noise = Signal(rng.standard_normal(1000), 8000)
    noisy, scaled = mix_at_snr(clean, noise, 300.0)
    assert np.max(np.abs(scaled.samples)) < 1e-12
    assert np.allclose(noisy.samples, clean.samples, atol=1e-12)


def test_mix_errors():
    clean = Signal(np.ones(100), 8000)
    with pytest.raises(ValueError, match="shorter"):
        mix_at_snr(clean, Signal(np.ones(50), 8000), 0.0)
    with pytest.raises(ValueError, match="zero-power"):
        mix_at_snr(clean, Signal(np.zeros(100), 8000), 0.0)
    with pytest.raises(ValueError, match="rate"):
        mix_at_snr(clean, Signal(np.ones(100), 16000), 0.0)


# case -> (call that raises ValueError, start of its message)
INVALID_CALLS = {
    "rate 0": (lambda: Signal(np.zeros(4), 0), "sample_rate must be positive"),
    "2-D samples": (lambda: Signal(np.zeros((2, 2)), 8000),
                    "samples must be a non-empty 1-D array"),
    "no samples": (lambda: Signal(np.zeros(0), 8000),
                   "samples must be a non-empty 1-D array"),
    "rate mismatch": (lambda: snr_db(Signal(np.ones(4), 8000),
                                     Signal(np.ones(4), 16000)),
                      "sample-rate mismatch"),
    **{f"target {target!r} dB": (
        lambda target=target: mix_at_snr(Signal(np.ones(4), 8000),
                                         Signal(np.ones(4), 8000), target),
        "target SNR .* is not within") for target in (4000.0, -4000.0, -300.5,
                                                     math.inf, -math.inf, math.nan)},
    # at -300 dB the noise power 4e-320 times 1e-30 underflows to 0
    "scaled noise not finite": (
        lambda: mix_at_snr(Signal(np.ones(4), 8000), Signal(np.full(4, 1e-160), 8000),
                           -300.0),
        "noise scaled to -300.0 dB SNR is not finite")}


@pytest.mark.parametrize("case", list(INVALID_CALLS))
def test_invalid_signal_raises(case):
    call, message = INVALID_CALLS[case]
    with pytest.raises(ValueError, match=message):
        call()
