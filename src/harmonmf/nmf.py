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

Each iteration takes one joint dictionary step and then one gain step.
The dictionary step refreshes the ratio R = Y / DX once, forms R X^T and
1 X^T, and updates every group from those two products (a Jacobi step):
free columns by the Lee-Seung KL step W <- W * (R X^T) / (1 X^T) (Lee &
Seung, NIPS 2000), groups with a basis by its projection onto Psi.  The
denominators 1 X^T and D^T 1 are row and column sums; each numerator is its
denominator plus a product with E = R - 1 (R X^T = 1 X^T + E X^T, D^T R =
D^T 1 + D^T E).  At Y = DX, E is exactly 0, so every numerator equals its
denominator bitwise and the fixed point is exact for any BLAS.  Because
DX = sum_g Psi_g A_g^T X_g is linear in all the coefficients stacked
together, one auxiliary function covers the joint step, so the lin and
free-column steps (X fixed) and the gain step (D fixed) each do not
increase KL + sparsity.  The dense rule has no such guarantee: with
Y = [[0.8674], [0.0436]] (2 bins, 1 frame), one speech atom on a 2 x 4
basis, alpha = 2 and lambda = 0, its total objective rises over some
iterations (README, "Python API").

Ratios, divergences and update quotients floor their operands at EPSILON.

``solve`` computes in float32 when Y is float32 and in float64 for any other
input; it casts the groups and the start gains to that dtype on entry, and
every scalar in the rules is a Python float, so nothing promotes back to
float64.  EPSILON is a normal float32 number.  Objective values are always
accumulated in float64, so traces of either dtype compare directly.
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
    noise groups.  Each group's columns are one product psi @ coeffs.T, the
    product solve uses after updating the group."""
    kinds = [g.kind for g in groups]
    if not kinds:
        raise ValueError("dictionary needs at least one group")
    if any(a == "noise" and b == "speech" for a, b in zip(kinds, kinds[1:])):
        raise ValueError("speech groups must precede noise groups")
    return np.hstack([g.coeffs.T if g.psi is None else g.psi @ g.coeffs.T
                      for g in groups])


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
        for name in ("lambda_speech", "lambda_noise", "alpha"):
            # a Python float never promotes a float32 solve to float64
            object.__setattr__(self, name, float(getattr(self, name)))
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
    """Generalized KL divergence between same-shape non-negative matrices,
    computed in float64."""
    if np.shape(Y) != np.shape(V):
        raise ValueError("shape mismatch")
    return kernels.kl_divergence_floored(Y, V, EPSILON)


def objective(Y, groups, X, settings: SolverSettings, mode: str) -> float:
    """KL + sparsity penalty, plus the density penalty in dense mode."""
    return _objective_point(0, Y, realize(groups) @ X, groups, X, settings,
                            mode).total


def _objective_point(iteration, Y, V, groups, X, settings, mode) -> ObjectivePoint:
    kl = kernels.kl_divergence_floored(Y, V, EPSILON)
    n_speech = speech_count(groups)
    sparsity = (settings.lambda_speech * float(X[:n_speech].sum(dtype=np.float64))
                + settings.lambda_noise * float(X[n_speech:].sum(dtype=np.float64)))
    density = 0.0
    if mode == "dense":
        density = settings.alpha * sum(
            float(np.square(g.coeffs, dtype=np.float64).sum())
            for g in groups if g.kind == "speech" and g.psi is not None)
    return ObjectivePoint(iteration, kl, sparsity, density)


def _refresh_excess(Y, V, E):
    """E = Y / max(V, EPSILON) - 1, in place: the ratio minus one."""
    kernels.refresh_ratio(Y, V, EPSILON, E)
    E -= 1.0
    return E


def update_gains(X, D, Y, settings: SolverSettings, n_speech: int, E=None):
    """X <- X * (D^T 1 + D^T E) / (D^T 1 + lambda), lambda per row block, in
    place.  E = Y/DX - 1 is computed when not given; D^T 1 is the column sums
    of D, so at Y = DX (E = 0, lambda 0) the quotient is exactly 1."""
    if E is None:
        E = _refresh_excess(Y, D @ X, np.empty_like(Y))
    den = D.sum(axis=0)[:, None]
    num = den + D.T @ E
    den[:n_speech] += settings.lambda_speech
    den[n_speech:] += settings.lambda_noise
    X *= np.maximum(num, EPSILON) / np.maximum(den, EPSILON)
    return X


def update_atom_lin(group: BasisGroup, RX, OX):
    """A <- A * (Psi^T R X_g^T) / (Psi^T 1 X_g^T), transposed to m x p, in
    place.  RX = R X_g^T and OX = 1 X_g^T are the group's K x m column
    slices of those two products; with psi None the projection is
    skipped, which is the Lee-Seung step W <- W * (R X^T) / (1 X^T)."""
    num, den = (RX, OX) if group.psi is None else (group.psi.T @ RX,
                                                  group.psi.T @ OX)
    group.coeffs *= (np.maximum(num, EPSILON) / np.maximum(den, EPSILON)).T
    return group.coeffs


def update_atom_dense(group: BasisGroup, RX, OX, alpha: float):
    """Density-regularized update of every row on l1-normalized
    coefficients, in place; each row is renormalized so the simplex
    constraint holds exactly.  RX and OX are as in update_atom_lin.  Every
    row must have a positive sum (solve checks this)."""
    A = group.coeffs
    a_tilde = A / A.sum(axis=1, keepdims=True)
    num_lin, den_lin = (group.psi.T @ RX).T, (group.psi.T @ OX).T
    num = (_rowdot(a_tilde, den_lin) + num_lin
           + alpha * _rowdot(a_tilde, a_tilde))
    den = den_lin + _rowdot(a_tilde, num_lin) + alpha * a_tilde
    new = a_tilde * (np.maximum(num, EPSILON) / np.maximum(den, EPSILON))
    A[:] = new / new.sum(axis=1, keepdims=True)
    return A


def _rowdot(a, b):
    """Row-wise dot products of two m x p arrays, as an m x 1 column."""
    return np.einsum("ij,ij->i", a, b)[:, None]


def _is_dense(group, mode):
    return mode == "dense" and group.kind == "speech" and group.psi is not None


def solve(Y, groups, settings: SolverSettings, mode: str,
          frozen_dictionary: bool = False, initial_gains=None,
          trace: bool = True) -> SolveResult:
    """Alternate one joint dictionary step and one gain update per iteration.

    The dictionary step refreshes the ratio once and updates every group
    from it: in dense mode speech groups with a basis use the density rule,
    all others the lin rule (free columns: the Lee-Seung step).  The
    groups' coefficients are updated in place.
    With frozen_dictionary only the gains are updated (Oracle baseline).
    With trace=False only the final objective point is computed.
    Computes in float32 when Y is float32, else in float64: the groups'
    bases and coefficients and the start gains are cast to that dtype on
    entry, and the dictionary, gains and coefficients come back in it.  The
    seeded start is drawn in float64 and then cast.
    Deterministic given the settings seed.
    Raises ValueError before the first iteration on a non-finite or
    negative Y or initial gains, or a dense-mode speech row summing to 0.
    """
    if mode not in ("lin", "dense"):
        raise ValueError(f"unknown mode {mode!r}")
    Y = np.asarray(Y)
    dtype = np.float32 if Y.dtype == np.float32 else np.float64
    Y = np.ascontiguousarray(Y, dtype=dtype)
    K, T = Y.shape
    if not np.all(np.isfinite(Y) & (Y >= 0)):
        raise ValueError("spectrogram must be finite and non-negative")
    n = sum(g.m for g in groups)
    if initial_gains is not None:
        X = np.array(initial_gains, dtype=dtype)
        if X.shape != (n, T):
            raise ValueError("initial gains shape mismatch")
        if not np.all(np.isfinite(X) & (X >= 0)):
            raise ValueError("initial gains must be finite and non-negative")
    else:
        rng = np.random.default_rng(settings.seed)
        X = (1.0 - rng.random((n, T))).astype(dtype, copy=False)  # uniform (0, 1]
    for g in groups:
        g.coeffs = g.coeffs.astype(dtype, copy=False)
        if g.psi is not None:
            g.psi = g.psi.astype(dtype, copy=False)
    dense_groups = [g for g in groups if _is_dense(g, mode)]
    if any(np.any(g.coeffs.sum(axis=1) <= 0) for g in dense_groups):
        raise ValueError("dense mode needs every speech coefficient row "
                         "to have a positive sum")
    for g in dense_groups:
        g.coeffs /= g.coeffs.sum(axis=1, keepdims=True)
    D = realize(groups)
    if D.shape[0] != K:
        raise ValueError("dictionary row count does not match spectrogram")

    starts = np.cumsum([0] + [g.m for g in groups])
    layout = [(g, slice(s, s + g.m), _is_dense(g, mode))
              for g, s in zip(groups, starts)]
    n_speech = speech_count(groups)
    E = np.empty_like(Y)
    V = D @ X
    points = []
    if trace:
        points.append(_objective_point(0, Y, V, groups, X, settings, mode))

    for it in range(1, settings.iterations + 1):
        if not frozen_dictionary:
            _refresh_excess(Y, V, E)
            OX = np.tile(X.sum(axis=1), (K, 1))
            RX = OX + E @ X.T
            for g, cols, dense in layout:
                if dense:
                    update_atom_dense(g, RX[:, cols], OX[:, cols], settings.alpha)
                else:
                    update_atom_lin(g, RX[:, cols], OX[:, cols])
            D_new = realize(groups)
            kernels.rank1_add(V, D_new - D, X)
            D = D_new
        update_gains(X, D, Y, settings, n_speech, E=_refresh_excess(Y, V, E))
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
