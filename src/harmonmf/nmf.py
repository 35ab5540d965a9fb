"""KL-divergence NMF with linearly constrained atoms.

Three multiplicative-update modes over one solver path:

* ``plain`` — unconstrained columns (noise-shape training, baselines),
* ``lin``   — each atom confined to the span of its basis, d_j = Psi_j a_j,
* ``dense`` — lin plus an l2 penalty on l1-normalized speech coefficients
  that discourages zero harmonic amplitudes.

An unconstrained (free) column is an atom with ``psi=None``: its coefficient
vector is the column itself.  Each iteration first updates all free columns
jointly from one ratio refresh, by the Lee-Seung KL dictionary step
W <- W * (R X^T) / (1 X^T) (Lee & Seung, NIPS 2000), then updates the
constrained atoms one at a time, each from a freshly refreshed ratio, and
last the gains.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import kernels

EPSILON = 1e-12


@dataclass
class ConstrainedAtom:
    """One dictionary column d_j = psi @ coeffs (psi=None means d_j = coeffs)."""
    psi: np.ndarray | None
    coeffs: np.ndarray
    kind: str  # "speech" | "noise"

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.kind not in ("speech", "noise"):
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if np.any(self.coeffs < 0):
            raise ValueError("coefficients must be non-negative")
        if self.psi is not None and np.any(self.psi < 0):
            raise ValueError("basis must be non-negative")

    def realize(self) -> np.ndarray:
        if self.psi is None:
            return self.coeffs
        return self.psi @ self.coeffs


class CompositeDictionary:
    """Ordered atoms (speech first, then noise) with a cached realized matrix."""

    def __init__(self, atoms):
        atoms = list(atoms)
        if not atoms:
            raise ValueError("dictionary needs at least one atom")
        first_noise = next((i for i, a in enumerate(atoms) if a.kind == "noise"),
                           len(atoms))
        if any(a.kind == "speech" for a in atoms[first_noise:]):
            raise ValueError("speech atoms must precede noise atoms")
        self.atoms = atoms
        self.n_speech = first_noise
        self.realized = np.column_stack([a.realize() for a in atoms])

    @property
    def n_atoms(self):
        return len(self.atoms)

    @property
    def n_noise(self):
        return len(self.atoms) - self.n_speech

    def refresh(self):
        for j, atom in enumerate(self.atoms):
            self.realized[:, j] = atom.realize()

    def speech_rows(self, X):
        return X[: self.n_speech]

    def noise_rows(self, X):
        return X[self.n_speech:]


@dataclass(frozen=True)
class SolverSettings:
    lambda_speech: float = 0.2
    lambda_noise: float = 0.0
    alpha: float = 10.0
    iterations: int = 25
    seed: int = 0
    epsilon: float = EPSILON

    def __post_init__(self):
        if self.lambda_speech < 0 or self.lambda_noise < 0 or self.alpha < 0:
            raise ValueError("regularization weights must be non-negative")
        if self.iterations < 1 or self.epsilon <= 0:
            raise ValueError("bad iteration count or epsilon")


@dataclass(frozen=True)
class ObjectivePoint:
    iteration: int
    kl: float
    sparsity_term: float
    density_term: float

    @property
    def total(self):
        return self.kl + self.sparsity_term + self.density_term


@dataclass
class SolveResult:
    dictionary: CompositeDictionary
    gains: np.ndarray
    trace: list = field(default_factory=list)


def kl_divergence(Y, V, epsilon: float = EPSILON) -> float:
    """Generalized KL divergence between same-shape non-negative matrices."""
    Y = np.asarray(Y, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if Y.shape != V.shape:
        raise ValueError("shape mismatch")
    return kernels.kl_divergence_floored(Y, V, epsilon)


def objective(Y, dictionary: CompositeDictionary, X, settings: SolverSettings,
              mode: str) -> float:
    """KL + sparsity penalty, plus the density penalty in dense mode."""
    point = _objective_point(0, Y, dictionary, X, settings, mode)
    return point.total


def _objective_point(iteration, Y, dictionary, X, settings, mode,
                     V=None) -> ObjectivePoint:
    if V is None:
        V = dictionary.realized @ X
    kl = kernels.kl_divergence_floored(Y, V, settings.epsilon)
    sparsity = (settings.lambda_speech * float(dictionary.speech_rows(X).sum())
                + settings.lambda_noise * float(dictionary.noise_rows(X).sum()))
    density = 0.0
    if mode == "dense":
        density = settings.alpha * sum(
            float(a.coeffs @ a.coeffs)
            for a in dictionary.atoms if a.kind == "speech" and a.psi is not None)
    return ObjectivePoint(iteration, kl, sparsity, density)


def update_gains(X, D, Y, settings: SolverSettings, n_speech: int,
                 ratio=None, ones=None):
    """X <- X * (D^T (Y/DX)) / (D^T 1 + lambda), lambda per row block, in place."""
    eps = settings.epsilon
    if ratio is None:
        V = D @ X
        ratio = kernels.refresh_ratio(Y, V, eps, np.empty_like(V))
    if ones is None:
        ones = np.ones_like(Y)
    num = D.T @ ratio
    den = D.T @ ones
    den[:n_speech] += settings.lambda_speech
    den[n_speech:] += settings.lambda_noise
    X *= np.maximum(num, eps) / np.maximum(den, eps)
    return X


def _atom_projections(atom, ratio, xrow, ones):
    """Numerator/denominator vectors of the lin rule for one atom.

    The denominator uses an explicit ones-matrix product so that when
    Y = DX (ratio all ones) both sides are bitwise equal and the fixed
    point holds exactly.
    """
    rv = ratio @ xrow
    ov = ones @ xrow
    if atom.psi is None:
        return rv, ov
    return atom.psi.T @ rv, atom.psi.T @ ov


def update_atom_lin(atom, ratio, xrow, epsilon: float = EPSILON, ones=None):
    """a_j <- a_j * (Psi^T (Y/DX) x_j^T) / (Psi^T 1 x_j^T), in place."""
    if ones is None:
        ones = np.ones_like(ratio)
    num, den = _atom_projections(atom, ratio, xrow, ones)
    atom.coeffs *= np.maximum(num, epsilon) / np.maximum(den, epsilon)
    return atom


def update_atom_dense(atom, ratio, xrow, alpha: float,
                      epsilon: float = EPSILON, ones=None):
    """Density-regularized update on l1-normalized coefficients; the result is
    renormalized so the simplex constraint holds exactly."""
    if ones is None:
        ones = np.ones_like(ratio)
    a = atom.coeffs
    norm = a.sum()
    if norm <= 0:
        raise ValueError("dense update requires a nonzero coefficient vector")
    a_tilde = a / norm
    num_lin, den_lin = _atom_projections(atom, ratio, xrow, ones)
    num = (a_tilde @ den_lin) + num_lin + alpha * (a_tilde @ a_tilde)
    den = den_lin + (a_tilde @ num_lin) + alpha * a_tilde
    new = a_tilde * (np.maximum(num, epsilon) / np.maximum(den, epsilon))
    atom.coeffs = new / new.sum()
    return atom


def update_free_columns(dictionary: CompositeDictionary, columns, ratio, X,
                        ones, epsilon: float = EPSILON):
    """W <- W * (R X_f^T) / (1 X_f^T) for the free columns W = D[:, columns]
    with X fixed, in place; ``ratio`` is R = Y/DX.

    The denominator uses an explicit ones-matrix product so that when
    Y = DX both sides are bitwise equal and the fixed point holds exactly.
    """
    xt = X[columns].T
    W = dictionary.realized[:, columns]
    W *= np.maximum(ratio @ xt, epsilon) / np.maximum(ones @ xt, epsilon)
    dictionary.realized[:, columns] = W
    for j, column in zip(columns, W.T):
        dictionary.atoms[j].coeffs[:] = column


def solve(Y, dictionary: CompositeDictionary, settings: SolverSettings,
          mode: str, frozen_dictionary: bool = False,
          initial_gains=None, trace: bool = True) -> SolveResult:
    """Alternate dictionary updates and one gain update per iteration.

    Free columns (psi=None) take one joint Lee-Seung step; constrained atoms
    then follow one at a time: in dense mode constrained speech atoms use the
    density rule, all others the lin rule.
    With frozen_dictionary only the gains are updated (Oracle baseline).
    With trace=False only the final objective point is computed.
    Deterministic given the settings seed.
    """
    if mode not in ("plain", "lin", "dense"):
        raise ValueError(f"unknown mode {mode!r}")
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    K, T = Y.shape
    if dictionary.realized.shape[0] != K:
        raise ValueError("dictionary row count does not match spectrogram")
    eps = settings.epsilon
    if initial_gains is not None:
        X = np.array(initial_gains, dtype=np.float64)
        if X.shape != (dictionary.n_atoms, T):
            raise ValueError("initial gains shape mismatch")
    else:
        rng = np.random.default_rng(settings.seed)
        X = 1.0 - rng.random((dictionary.n_atoms, T))  # uniform (0, 1]

    if mode == "dense":
        for atom in dictionary.atoms:
            if atom.kind == "speech" and atom.psi is not None:
                atom.coeffs = atom.coeffs / atom.coeffs.sum()
        dictionary.refresh()

    free = [j for j, atom in enumerate(dictionary.atoms) if atom.psi is None]
    constrained = [j for j, atom in enumerate(dictionary.atoms)
                   if atom.psi is not None]
    ones = np.ones_like(Y)
    ratio = np.empty_like(Y)
    V = dictionary.realized @ X
    points = []
    if trace:
        points.append(_objective_point(0, Y, dictionary, X, settings, mode, V=V))

    for it in range(1, settings.iterations + 1):
        if not frozen_dictionary:
            if free:
                kernels.refresh_ratio(Y, V, eps, ratio)
                update_free_columns(dictionary, free, ratio, X, ones, eps)
                V = dictionary.realized @ X
            for j in constrained:
                atom = dictionary.atoms[j]
                kernels.refresh_ratio(Y, V, eps, ratio)
                xrow = X[j]
                d_old = dictionary.realized[:, j].copy()
                if mode == "dense" and atom.kind == "speech" and atom.psi is not None:
                    update_atom_dense(atom, ratio, xrow, settings.alpha, eps, ones)
                else:
                    update_atom_lin(atom, ratio, xrow, eps, ones)
                d_new = atom.realize()
                dictionary.realized[:, j] = d_new
                kernels.rank1_add(V, d_new - d_old, xrow)
        kernels.refresh_ratio(Y, V, eps, ratio)
        update_gains(X, dictionary.realized, Y, settings, dictionary.n_speech,
                     ratio=ratio, ones=ones)
        V = dictionary.realized @ X
        if trace or it == settings.iterations:
            points.append(_objective_point(it, Y, dictionary, X, settings, mode,
                                           V=V))

    return SolveResult(dictionary, X, points)


def write_trace_csv(trace, path) -> None:
    """Objective trace as iteration,kl,sparsity_term,density_term,total."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "kl", "sparsity_term", "density_term", "total"])
        for p in trace:
            writer.writerow([p.iteration, repr(p.kl), repr(p.sparsity_term),
                             repr(p.density_term), repr(p.total)])
