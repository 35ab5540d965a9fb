"""KL-divergence NMF over shared-basis groups of dictionary atoms.

A dictionary is an ordered list of basis groups, speech groups first.  A
group holds m atoms that share one non-negative basis Psi (K x p) and one
m x p coefficient array A: atom i is the column d_i = Psi A[i].  A group
without a basis (Psi = None) holds free columns, d_i = A[i].

Two multiplicative-update modes over one solver path:

* ``lin``   — each atom confined to the span of its group's basis,
* ``dense`` — lin plus an l2 penalty on the l1-normalized coefficients of
  speech groups with a basis, which discourages zero harmonic amplitudes.

Free columns need no mode of their own: they are the groups with
``psi=None``, and they take the same step in either mode.

Each iteration first updates all free columns jointly from one ratio
refresh, by the Lee-Seung KL dictionary step W <- W * (R X^T) / (1 X^T)
(Lee & Seung, NIPS 2000), then updates the constrained columns one at a
time in dictionary order, each from a freshly refreshed ratio, and last the
gains.  The free-column and lin steps (X fixed) and the gain step (D fixed)
each do not increase KL + sparsity.  The dense rule has no such guarantee:
with Y = [[0.8674], [0.0436]] (2 bins, 1 frame), one speech atom on a 2 x 4
basis, alpha = 2 and lambda = 0, its total objective rises over some
iterations (README, "Python API").

Ratios, divergences and update quotients floor their operands at EPSILON.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import kernels

EPSILON = 1e-12


@dataclass
class BasisGroup:
    """m atoms sharing one basis: atom i is psi @ coeffs[i], or coeffs[i]
    itself when psi is None.  coeffs is stored as a C-ordered m x p copy, so
    each atom's coefficients are one contiguous row."""
    psi: np.ndarray | None
    coeffs: np.ndarray
    kind: str  # "speech" | "noise"

    def __post_init__(self):
        self.coeffs = np.array(self.coeffs, dtype=np.float64, order="C")
        if self.kind not in ("speech", "noise"):
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if self.coeffs.ndim != 2 or self.coeffs.shape[0] < 1:
            raise ValueError("coefficients must be an m x p array with m >= 1")
        if np.any(self.coeffs < 0):
            raise ValueError("coefficients must be non-negative")
        if self.psi is not None and np.any(self.psi < 0):
            raise ValueError("basis must be non-negative")

    @property
    def m(self):
        return self.coeffs.shape[0]


def realize(groups) -> np.ndarray:
    """The K x n dictionary of ordered groups; speech groups must precede
    noise groups.  Each constrained column is its own matrix-vector product
    psi @ coeffs[i], the product solve uses after updating that column."""
    kinds = [g.kind for g in groups]
    if not kinds:
        raise ValueError("dictionary needs at least one group")
    if any(a == "noise" and b == "speech" for a, b in zip(kinds, kinds[1:])):
        raise ValueError("speech groups must precede noise groups")
    return np.column_stack([a if g.psi is None else g.psi @ a
                            for g in groups for a in g.coeffs])


def speech_count(groups) -> int:
    """Number of speech columns, which lead the dictionary."""
    return sum(g.m for g in groups if g.kind == "speech")


@dataclass(frozen=True)
class SolverSettings:
    lambda_speech: float = 0.2
    lambda_noise: float = 0.0
    alpha: float = 10.0
    iterations: int = 25
    seed: int = 0

    def __post_init__(self):
        if self.lambda_speech < 0 or self.lambda_noise < 0 or self.alpha < 0:
            raise ValueError("regularization weights must be non-negative")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")


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
    groups: list
    dictionary: np.ndarray  # K x n, realized from the groups
    gains: np.ndarray
    trace: list = field(default_factory=list)


def kl_divergence(Y, V) -> float:
    """Generalized KL divergence between same-shape non-negative matrices."""
    Y = np.asarray(Y, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if Y.shape != V.shape:
        raise ValueError("shape mismatch")
    return kernels.kl_divergence_floored(Y, V, EPSILON)


def objective(Y, groups, X, settings: SolverSettings, mode: str) -> float:
    """KL + sparsity penalty, plus the density penalty in dense mode."""
    return _objective_point(0, Y, realize(groups) @ X, groups, X, settings,
                            mode).total


def _objective_point(iteration, Y, V, groups, X, settings, mode) -> ObjectivePoint:
    kl = kernels.kl_divergence_floored(Y, V, EPSILON)
    n_speech = speech_count(groups)
    sparsity = (settings.lambda_speech * float(X[:n_speech].sum())
                + settings.lambda_noise * float(X[n_speech:].sum()))
    density = 0.0
    if mode == "dense":
        density = settings.alpha * sum(
            float((g.coeffs * g.coeffs).sum())
            for g in groups if g.kind == "speech" and g.psi is not None)
    return ObjectivePoint(iteration, kl, sparsity, density)


def update_gains(X, D, Y, settings: SolverSettings, n_speech: int,
                 ratio=None, ones=None):
    """X <- X * (D^T (Y/DX)) / (D^T 1 + lambda), lambda per row block, in place."""
    if ratio is None:
        V = D @ X
        ratio = kernels.refresh_ratio(Y, V, EPSILON, np.empty_like(V))
    if ones is None:
        ones = np.ones_like(Y)
    num = D.T @ ratio
    den = D.T @ ones
    den[:n_speech] += settings.lambda_speech
    den[n_speech:] += settings.lambda_noise
    X *= np.maximum(num, EPSILON) / np.maximum(den, EPSILON)
    return X


def _atom_projections(psi, ratio, xrow, ones):
    """Numerator/denominator vectors of the lin rule for one atom.

    The denominator uses an explicit ones-matrix product so that when
    Y = DX (ratio all ones) both sides are bitwise equal and the fixed
    point holds exactly.
    """
    return psi.T @ (ratio @ xrow), psi.T @ (ones @ xrow)


def update_atom_lin(group: BasisGroup, i: int, ratio, xrow, ones=None):
    """a_i <- a_i * (Psi^T (Y/DX) x_i^T) / (Psi^T 1 x_i^T) for row i of the
    group's coefficients, in place."""
    if ones is None:
        ones = np.ones_like(ratio)
    num, den = _atom_projections(group.psi, ratio, xrow, ones)
    a = group.coeffs[i]
    a *= np.maximum(num, EPSILON) / np.maximum(den, EPSILON)
    return a


def update_atom_dense(group: BasisGroup, i: int, ratio, xrow, alpha: float,
                      ones=None):
    """Density-regularized update of row i on l1-normalized coefficients, in
    place; the row is renormalized so the simplex constraint holds exactly."""
    if ones is None:
        ones = np.ones_like(ratio)
    a = group.coeffs[i]
    norm = a.sum()
    if norm <= 0:
        raise ValueError("dense update requires a nonzero coefficient vector")
    a_tilde = a / norm
    num_lin, den_lin = _atom_projections(group.psi, ratio, xrow, ones)
    num = (a_tilde @ den_lin) + num_lin + alpha * (a_tilde @ a_tilde)
    den = den_lin + (a_tilde @ num_lin) + alpha * a_tilde
    new = a_tilde * (np.maximum(num, EPSILON) / np.maximum(den, EPSILON))
    a[:] = new / new.sum()
    return a


def update_free_columns(free, D, ratio, X, ones):
    """W <- W * (R X_f^T) / (1 X_f^T) jointly over the columns W of all
    identity groups, with X fixed; ``ratio`` is R = Y/DX and ``free`` lists
    (group, its column range in D).  Updates the groups' coefficients and
    their columns of D in place.

    The denominator uses an explicit ones-matrix product so that when
    Y = DX both sides are bitwise equal and the fixed point holds exactly.
    """
    xt = X[[j for _, cols in free for j in cols]].T
    step = np.maximum(ratio @ xt, EPSILON) / np.maximum(ones @ xt, EPSILON)
    k = 0
    for group, cols in free:
        group.coeffs *= step[:, k:k + group.m].T
        D[:, cols] = group.coeffs.T
        k += group.m


def solve(Y, groups, settings: SolverSettings, mode: str,
          frozen_dictionary: bool = False, initial_gains=None,
          trace: bool = True) -> SolveResult:
    """Alternate dictionary updates and one gain update per iteration.

    Free columns (identity groups) take one joint Lee-Seung step; the
    columns of groups with a basis then follow one at a time: in dense mode
    speech columns use the density rule, all others the lin rule.  The
    groups' coefficients are updated in place.
    With frozen_dictionary only the gains are updated (Oracle baseline).
    With trace=False only the final objective point is computed.
    Deterministic given the settings seed.
    """
    if mode not in ("lin", "dense"):
        raise ValueError(f"unknown mode {mode!r}")
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    K, T = Y.shape
    if mode == "dense":
        for g in groups:
            if g.kind == "speech" and g.psi is not None:
                for a in g.coeffs:
                    a /= a.sum()
    D = realize(groups)
    if D.shape[0] != K:
        raise ValueError("dictionary row count does not match spectrogram")
    if initial_gains is not None:
        X = np.array(initial_gains, dtype=np.float64)
        if X.shape != (D.shape[1], T):
            raise ValueError("initial gains shape mismatch")
    else:
        rng = np.random.default_rng(settings.seed)
        X = 1.0 - rng.random((D.shape[1], T))  # uniform (0, 1]

    starts = np.cumsum([0] + [g.m for g in groups])
    layout = [(g, range(s, s + g.m)) for g, s in zip(groups, starts)]
    free = [(g, cols) for g, cols in layout if g.psi is None]
    constrained = [(g, cols) for g, cols in layout if g.psi is not None]
    n_speech = speech_count(groups)
    ones = np.ones_like(Y)
    ratio = np.empty_like(Y)
    V = D @ X
    points = []
    if trace:
        points.append(_objective_point(0, Y, V, groups, X, settings, mode))

    for it in range(1, settings.iterations + 1):
        if not frozen_dictionary:
            if free:
                kernels.refresh_ratio(Y, V, EPSILON, ratio)
                update_free_columns(free, D, ratio, X, ones)
                V = D @ X
            for g, cols in constrained:
                dense = mode == "dense" and g.kind == "speech"
                for i, j in enumerate(cols):
                    kernels.refresh_ratio(Y, V, EPSILON, ratio)
                    xrow = X[j]
                    d_old = D[:, j].copy()
                    if dense:
                        update_atom_dense(g, i, ratio, xrow, settings.alpha, ones)
                    else:
                        update_atom_lin(g, i, ratio, xrow, ones)
                    d_new = g.psi @ g.coeffs[i]
                    D[:, j] = d_new
                    kernels.rank1_add(V, d_new - d_old, xrow)
        kernels.refresh_ratio(Y, V, EPSILON, ratio)
        update_gains(X, D, Y, settings, n_speech, ratio=ratio, ones=ones)
        V = D @ X
        if trace or it == settings.iterations:
            points.append(_objective_point(it, Y, V, groups, X, settings, mode))

    return SolveResult(groups, D, X, points)


def write_trace_csv(trace, path) -> None:
    """Objective trace as iteration,kl,sparsity_term,density_term,total."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "kl", "sparsity_term", "density_term", "total"])
        for p in trace:
            writer.writerow([p.iteration, repr(p.kl), repr(p.sparsity_term),
                             repr(p.density_term), repr(p.total)])
