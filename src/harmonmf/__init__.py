"""Semi-supervised single-channel speech enhancement by NMF with linearly
constrained dictionary atoms: harmonic speech atoms, trained noise shapes,
multiplicative-update solvers and Wiener reconstruction."""
from .dictionary import (NoiseShapes, build_harmonic_basis, build_noise_bases,
                         fundamental_grid, harmonic_amplitudes, harmonic_count,
                         load_noise_shapes, save_noise_shapes,
                         train_noise_shapes)
from .enhance import (EnhanceConfig, EnhanceResult, enhance, enhance_oracle,
                      enhance_plain, oracle_speech_atoms, sweep_atoms_sparsity,
                      wiener_reconstruct)
from .nmf import (BasisGroup, SolverSettings, iterate, kl_divergence, objective,
                  realize, solve)
from .signal_io import Signal, mix_at_snr, read_wav, snr_db, write_wav
from .stft import (ComplexSpectrogram, FrameParams, MagnitudeSpectrogram,
                   WindowSpectrum, hann_window, istft, stft)

__version__ = "0.1.0"
