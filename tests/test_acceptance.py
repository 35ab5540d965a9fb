"""Acceptance suite: one printed pass/fail line per criterion.

Each criterion gets its own test; helper `report` prints the verdict before
pytest records the assertion, so `pytest -v -s tests/test_acceptance.py`
gives a readable scoreboard.
"""
import math
import time

import numpy as np
import pytest

from harmonmf.dictionary import build_noise_bases, harmonic_count
from harmonmf.enhance import (EnhanceConfig, build_speech_atoms, enhance,
                              sweep_atoms_sparsity)
from harmonmf.nmf import BasisGroup, SolverSettings, kl_divergence, realize, solve
from harmonmf.signal_io import Signal, snr_db, write_wav
from harmonmf.stft import default_frame_params, istft, stft

from conftest import SR, harmonic_signal, white_noise


def report(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def random_problem(seed, K=32, T=40, m_s=12, m_n=4, p=8, r=4):
    """m_s speech groups of one atom, each with its own basis, and one
    group of m_n noise atoms sharing one shape matrix."""
    rng = np.random.default_rng(seed)
    groups = [BasisGroup(psi=rng.random((1, K, p)),
                         coeffs=[[rng.random(p) + 0.1]], kind="speech")
              for _ in range(m_s)]
    shapes = rng.random((1, K, r)) + 0.05
    groups.append(BasisGroup(psi=shapes, coeffs=rng.random((1, m_n, r)) + 0.1,
                             kind="noise"))
    Y = rng.random((K, T)) + 0.01
    return Y, groups


def free_problem(seed, K=32, T=40, n_s=4, n_n=2):
    """Unconstrained-NMF problem: every column free (identity groups)."""
    rng = np.random.default_rng(seed)
    groups = [BasisGroup(psi=None, coeffs=[[rng.random(K) + 0.1]], kind=kind)
              for kind in ["speech"] * n_s + ["noise"] * n_n]
    Y = rng.random((K, T)) + 0.01
    return Y, groups


def test_criterion_1_monotone_objective():
    settings = SolverSettings(lambda_speech=0.2, lambda_noise=0.0,
                              alpha=10.0, iterations=25, seed=0)
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        for problem, mode in ((random_problem, "lin"), (random_problem, "dense"),
                              (free_problem, "lin")):
            Y, dic = problem(seed)
            trace = solve(Y, dic, settings, mode).trace
            values = [pt.kl + pt.sparsity_term for pt in trace]
            for prev, cur in zip(values, values[1:]):
                worst = max(worst, (cur - prev) / (1.0 + abs(prev)))
    elapsed = time.perf_counter() - start
    report(1, "objective non-increasing, 20 seeds, lin, dense and free columns",
           worst <= 1e-9 and elapsed < 10.0)


def test_criterion_2_exact_fixed_points():
    rng = np.random.default_rng(3)
    K, T, p = 32, 40, 8

    def consistent_problem(problem):
        if problem == "free":
            dic = [BasisGroup(psi=None, coeffs=[[rng.random(K) + 0.1]], kind=kind)
                   for kind in ["speech"] * 4 + ["noise"] * 2]
            X0 = rng.random((len(dic), T)) + 0.1
            return realize(dic) @ X0, dic, X0
        dic = []
        for _ in range(12):
            coeffs = np.full(p, 1.0 / p) if problem == "dense" else rng.random(p) + 0.1
            dic.append(BasisGroup(psi=rng.random((1, K, p)), coeffs=[[coeffs]],
                                  kind="speech"))
        shapes = rng.random((1, K, 4)) + 0.05
        dic.append(BasisGroup(psi=shapes, coeffs=rng.random((1, 4, 4)) + 0.1,
                              kind="noise"))
        X0 = rng.random((sum(g.n_atoms for g in dic), T)) + 0.1
        return realize(dic) @ X0, dic, X0

    settings = SolverSettings(lambda_speech=0.0, lambda_noise=0.0,
                              alpha=10.0, iterations=5, seed=0)
    ok = True
    for problem, mode in (("lin", "lin"), ("dense", "dense"), ("free", "lin")):
        Y, dic, X0 = consistent_problem(problem)
        coeffs0 = [g.coeffs.copy() for g in dic]
        result = solve(Y, dic, settings, mode, initial_gains=X0)
        ok = ok and np.array_equal(result.gains, X0)
        ok = ok and all(np.array_equal(g.coeffs, c0)
                        for g, c0 in zip(result.groups, coeffs0))
    report(2, "consistent Y = DX is an exact fixed point (lin, dense and free)",
           ok)


def test_criterion_3_constraint_invariants():
    settings = SolverSettings(iterations=10, seed=0)
    ok = True
    for seed in range(5):
        for mode in ("lin", "dense"):
            Y, dic = random_problem(seed + 100)
            result = solve(Y, dic, settings, mode)
            atoms = [(g, psi, a) for g in result.groups
                     for psi, A in zip(g.psi, g.coeffs) for a in A]
            for j, (group, psi, a) in enumerate(atoms):
                realized = result.dictionary[:, j]
                ok = ok and np.max(np.abs(realized - psi @ a)) <= 1e-12
                ok = ok and np.all(a >= 0)
                if mode == "dense" and group.kind == "speech":
                    ok = ok and abs(a.sum() - 1.0) <= 1e-10
            ok = ok and np.all(result.gains >= 0)
    report(3, "realized columns, l1 normalization, non-negativity", ok)


def test_criterion_4_kl_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        Y = rng.random((5, 5))
        V = rng.random((5, 5)) + 0.1
        brute = 0.0
        for i in range(5):
            for j in range(5):
                y, v = Y[i, j], V[i, j]
                if y > 0:
                    brute += y * math.log(y / v) - y + v
                else:
                    brute += v
        worst = max(worst, abs(kl_divergence(Y, V) - brute) / abs(brute))
    report(4, "KL matches brute-force summation on 50 random pairs",
           worst <= 1e-12)


def test_criterion_5_plain_rank1_recovery():
    rng = np.random.default_rng(21)
    d = rng.random(16) + 0.1
    x = rng.random(30) + 0.1
    Y = np.outer(d, x)
    dic = [BasisGroup(psi=None, coeffs=[[rng.random(16) + 0.1]], kind="speech")]
    settings = SolverSettings(lambda_speech=0.0, iterations=100, seed=0)
    start = time.perf_counter()
    trace = solve(Y, dic, settings, "lin").trace
    elapsed = time.perf_counter() - start
    ratio = trace[-1].kl / trace[0].kl
    report(5, "a free column drives rank-1 KL below 1e-6 of its start, "
           f"within 1.0 s: KL ratio {ratio:.3g}, {elapsed:.3f} s",
           ratio < 1e-6 and elapsed < 1.0)


def test_criterion_6_stft_roundtrip():
    params = default_frame_params(SR)
    rng = np.random.default_rng(6)
    wl = params.window_len
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(SR)
        rec = istft(stft(Signal(x, SR), params)).samples
        interior = slice(wl, len(rec) - wl)
        worst = max(worst, np.linalg.norm(rec[interior] - x[interior])
                    / np.linalg.norm(x[interior]))
    report(6, "istft(stft(x)) interior error on 100 random signals",
           worst <= 1e-6)


def test_criterion_7_desk_scale_enhancement(noise_shapes, desk_mixture):
    clean, noisy = desk_mixture
    start = time.perf_counter()
    result = enhance(noisy, noise_shapes, EnhanceConfig())
    elapsed = time.perf_counter() - start
    gain = snr_db(clean, result.denoised) - snr_db(clean, noisy)
    report(7, f"dense enhancement gains {gain:.2f} dB at 0 dB input",
           gain >= 3.0 and elapsed < 60.0)


def test_criterion_8_dictionary_sizing(noise_shapes):
    config = EnhanceConfig()
    speech = build_speech_atoms(config, config.frame_params())
    noise = build_noise_bases(noise_shapes, config.m_n, config.seed)
    report(8, "132 speech + 16 noise atoms, p = 10 @ 400 Hz and 30 @ 80 Hz",
           speech.coeffs.shape[:2] == (33, 4) and speech.n_atoms == 132
           and noise.n_atoms == 16
           and harmonic_count(400.0, SR, 30) == 10
           and harmonic_count(80.0, SR, 30) == 30)


def test_criterion_9_sweep_interior_maximum(noise_shapes, desk_mixture):
    clean, noisy = desk_mixture
    config = EnhanceConfig(m=5)
    L_values = [2, 5, 10, 20, 33, 50, 75, 100]
    start = time.perf_counter()
    rows = sweep_atoms_sparsity(noisy, clean, noise_shapes, config,
                                L_values, [0.2, 0.5, 1.0])
    elapsed = time.perf_counter() - start
    curve = {L: out for L, lam, _, out in rows if lam == 0.2}
    peak_L = max(curve, key=curve.get)
    ok = (len(rows) == 24 and 2 < peak_L < 100
          and curve[peak_L] > curve[2] and curve[peak_L] > curve[100]
          and elapsed < 1800.0)
    report(9, f"atom-count sweep peaks at L = {peak_L}, strictly inside", ok)


def test_criterion_10_determinism(noise_shapes, desk_mixture, tmp_path):
    _, noisy = desk_mixture
    config = EnhanceConfig(seed=4)
    paths = [tmp_path / "a.wav", tmp_path / "b.wav"]
    for path in paths:
        write_wav(enhance(noisy, noise_shapes, config).denoised, path)
    report(10, "same seed, byte-identical output WAVs",
           paths[0].read_bytes() == paths[1].read_bytes())
