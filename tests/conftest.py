import os

import numpy as np
import pytest
from hypothesis import settings

from harmonmf.dictionary import train_noise_shapes
from harmonmf.signal_io import Signal, mix_at_snr
from harmonmf.stft import default_frame_params, stft

SR = 8000

# Examples per generated property: "default" for local runs, "ci" (selected
# with HYPOTHESIS_PROFILE=ci) about ten times as many.  No deadline: a solve's
# time varies with the drawn sizes.
settings.register_profile("default", max_examples=25, deadline=None)
settings.register_profile("ci", max_examples=250, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def harmonic_signal(f0=120.0, n_harmonics=10, seconds=1.0, sr=SR, amplitude=0.3):
    """Hann-enveloped harmonic tone with 1/k amplitude rolloff."""
    t = np.arange(int(seconds * sr)) / sr
    x = sum((1.0 / k) * np.sin(2 * np.pi * f0 * k * t)
            for k in range(1, n_harmonics + 1))
    x = x * np.hanning(len(t))
    return Signal(amplitude * x / np.abs(x).max(), sr)


def white_noise(seconds=1.0, sr=SR, seed=7, scale=0.1):
    rng = np.random.default_rng(seed)
    return Signal(rng.standard_normal(int(seconds * sr)) * scale, sr)


@pytest.fixture(scope="session")
def frame_params():
    return default_frame_params(SR)


@pytest.fixture(scope="session")
def noise_shapes(frame_params):
    """Shapes trained on 10 s of white noise; shared, treat as read-only."""
    noise = white_noise(seconds=10.0, seed=7)
    return train_noise_shapes(stft(noise, frame_params).magnitude(), 16, seed=0)


@pytest.fixture(scope="session")
def desk_mixture():
    """(clean, noisy) pair mixed at 0 dB SNR."""
    clean = harmonic_signal()
    noisy, _ = mix_at_snr(clean, white_noise(seconds=1.0, seed=7), 0.0)
    return clean, noisy
