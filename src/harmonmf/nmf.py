"""KL-divergence NMF over shared-basis groups of dictionary atoms.

A dictionary is a list of basis groups, each of kind speech or noise, in
any order: a group's kind, not its position, sets its sparsity weight.  A
group stacks G non-negative bases Psi (G x K x p) under a G x m x p
coefficient array A: atom (b, i) is the column Psi[b] A[b, i], and columns
run basis-major.  A basis of fewer than p columns is zero-padded, and so
are its coefficients.  A group without a basis (Psi = None, G = 1) holds
free columns, d_i = A[0, i], which take the same step in either mode.

Two multiplicative-update modes over one solver path:

* ``lin``   — each atom confined to the span of its basis,
* ``dense`` — lin plus an l2 penalty on the l1-normalized coefficients of
  speech groups with a basis, which discourages zero harmonic amplitudes.

Each iteration takes one joint dictionary step and then one gain step.
The dictionary step refreshes E = Y / DX - 1 once, forms XE = X E^T and
the row sums s = X 1, and updates every group from those (a Jacobi step):
free columns by the Lee-Seung KL step W <- W * (R X^T) / (1 X^T) (Lee &
Seung, NIPS 2000), groups with a basis by its projection onto Psi, where
1 X^T projects to the outer product s (1^T Psi) and R X^T to that plus
XE Psi; the bases are fixed, so 1^T Psi is formed once per solve.  The
gain step's numerator is D^T 1 + D^T E.  XE is formed as (E X^T)^T, a
view of a C-ordered K x n buffer: at the n = 16 of noise training OpenBLAS
forms E X^T in about 60 % of the time of X E^T (0.09-0.12 against
0.16-0.21 ms at T = 1247, float32, 1 thread, bitwise equal on its SkylakeX
kernel), and each group's rows of the view still reshape without a
copy.  Psi^T and every array of the loop are also formed once per solve.
The dictionary has one layout: each group writes its rows of a C-ordered
n x K array D^T as coeffs @ Psi^T, and D is its transpose, a view.  After
each step the model is recomputed, V = DX.
At Y = DX, E is exactly 0, so every numerator equals its denominator
bitwise and the fixed point is exact for any BLAS; on zero padding both are
0, and A stays 0.
Because DX = sum_g Psi_g A_g^T X_g is linear in all the coefficients
stacked together, one auxiliary function covers the joint step, so the lin
and free-column steps (X fixed) and the gain step (D fixed) each do not
increase KL + sparsity.  The dense rule has no such guarantee: README,
"Python API", gives a 2-bin, 1-frame instance whose total objective rises.

``iterate`` is the solver loop, a generator: it yields (k, V, D, X) at the
start (k = 0) and after each iteration k, as read-only views of its own
buffers that stay valid only until the next step, and its ValueErrors
arrive at the first next().  ``solve`` runs it to the end, and its
objective trace is computed from the yielded states.

Ratios, divergences and update quotients floor their operands at EPSILON.

``solve`` computes in float32 when Y is float32 and in float64 for any other
input; it casts the groups and the start gains to that dtype on entry, and
every scalar in the rules is a Python float, so nothing promotes back to
float64.  EPSILON is a normal float32 number.  Objective values are always
accumulated in float64, so traces of either dtype compare directly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels

EPSILON = 1e-12
_F32_MAX = float(np.finfo(np.float32).max)


@dataclass
class BasisGroup:
    """G x m atoms over the G x K x p bases psi: atom (b, i) is
    psi[b] @ coeffs[b, i], or coeffs[0, i] when psi is None (G = 1).  coeffs
    is a C-ordered G x m x p copy: each atom's coefficients are one row.
    psi is held C-ordered, so its input layout never changes a product."""
    psi: np.ndarray | None
    coeffs: np.ndarray
    kind: str  # "speech" | "noise"

    def __post_init__(self):
        self.coeffs = np.array(self.coeffs, dtype=np.float64, order="C")
        self.psi = None if self.psi is None else np.ascontiguousarray(self.psi)
        if self.kind not in ("speech", "noise"):
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if self.coeffs.ndim != 3 or 0 in self.coeffs.shape[:2]:
            raise ValueError("coefficients must be a G x m x p array with G, m >= 1")
        if (len(self.coeffs) != 1 if self.psi is None
                else np.shape(self.psi)[::2] != self.coeffs.shape[::2]):
            raise ValueError("basis must be G x K x p, or None with G = 1")
        if np.any(self.coeffs < 0):
            raise ValueError("coefficients must be non-negative")
        if self.psi is not None and np.any(self.psi < 0):
            raise ValueError("basis must be non-negative")

    @property
    def n_atoms(self):
        return self.coeffs.shape[0] * self.coeffs.shape[1]


def realize(groups) -> np.ndarray:
    """The K x n dictionary of the groups, their columns in list order.  It
    is the transpose of a C-ordered n x K array D^T, whose rows each group
    writes as iterate does (see _dictionary)."""
    return _dictionary(groups)[0]


def _dictionary(groups):
    """(D, each group's Psi^T or None).  D is K x n, the transpose of a
    C-ordered n x K array D^T, a view, whose rows each group writes by
    _write_rows.  realize and iterate both build their dictionary here, so
    Psi^T is formed once per solve."""
    if not groups:
        raise ValueError("dictionary needs at least one group")
    K = groups[0].coeffs.shape[2] if groups[0].psi is None else groups[0].psi.shape[1]
    Dt = np.empty((sum(g.n_atoms for g in groups), K), np.result_type(
        *[a for g in groups for a in (g.coeffs, g.psi) if a is not None]))
    # Psi^T as a C-ordered G x p x K copy: coeffs @ Psi^T takes a third of
    # the time of psi @ coeffs^T on the default float32 bases
    psi_ts = [None if g.psi is None else np.ascontiguousarray(g.psi.transpose(0, 2, 1))
              for g in groups]
    for g, psi_t, rows in zip(groups, psi_ts, _rows_of(groups, Dt)):
        _write_rows(g, psi_t, rows)
    return Dt.T, psi_ts


def _rows_of(groups, Dt):
    """Each group's rows of D^T, as G x m x K views."""
    starts = np.cumsum([0] + [g.n_atoms for g in groups])
    return [Dt[a:b].reshape(g.coeffs.shape[:2] + Dt.shape[1:])
            for g, a, b in zip(groups, starts, starts[1:])]


def _write_rows(group, psi_t, rows):
    """rows = coeffs @ Psi^T, the group's rows of D^T, in place; a free group
    (psi_t None) copies its coefficients."""
    if psi_t is None:
        rows[:] = group.coeffs
    else:
        np.matmul(group.coeffs, psi_t, out=rows)


@dataclass(frozen=True)
class SolverSettings:
    """The solver's settings: the sparsity weights of speech and of noise
    atoms, dense mode's density weight, the iteration count, the mode and
    the seed of the start gains.  The weights are held as Python floats and
    bounded at the float32 maximum, so a float32 solve never overflows on
    one."""
    lambda_s: float = 0.2
    lambda_n: float = 0.0
    alpha: float = 10.0
    iterations: int = 25
    mode: str = "dense"
    seed: int = 0

    def _require(self, ok, what, name):
        if not ok:
            raise ValueError(f"{name} must be {what}, got {getattr(self, name)!r}")

    def __post_init__(self):
        for name in ("lambda_s", "lambda_n", "alpha"):
            # a Python float never promotes a float32 solve to float64
            object.__setattr__(self, name, float(getattr(self, name)))
            self._require(0 <= getattr(self, name) <= _F32_MAX,
                          f"in [0, {_F32_MAX:.8g}]", name)
        self._require(self.iterations >= 1, "at least 1", "iterations")
        self._require(self.mode in ("lin", "dense"), "'lin' or 'dense'", "mode")
        self._require(self.seed >= 0, "non-negative", "seed")


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


def objective(Y, groups, X, settings: SolverSettings) -> float:
    """KL + sparsity penalty, plus the density penalty in dense mode."""
    return _objective_point(0, Y, realize(groups) @ X, groups, X, settings).total


def _sparsity_weight(settings, group) -> float:
    """lambda_s or lambda_n, by the group's kind."""
    return settings.lambda_s if group.kind == "speech" else settings.lambda_n


def _objective_point(iteration, Y, V, groups, X, settings) -> ObjectivePoint:
    kl = kernels.kl_divergence_floored(Y, V, EPSILON)
    sparsity = sum(_sparsity_weight(settings, g) * float(x.sum(dtype=np.float64))
                   for g, x in zip(groups, _rows_of(groups, X)))
    density = 0.0
    if settings.mode == "dense":
        density = settings.alpha * sum(
            float(np.square(g.coeffs, dtype=np.float64).sum())
            for g in groups if g.kind == "speech" and g.psi is not None)
    return ObjectivePoint(iteration, kl, sparsity, density)


def update_gains(X, D, E, lam, work):
    """X <- X * (D^T 1 + D^T E) / (D^T 1 + lam) in place, for E = Y/DX - 1
    as iterate's refresh forms it and lam the n x 1 sparsity weights of the
    atoms.  D^T 1 is the column sums of D, so at Y = DX (E = 0, lam 0) the
    quotient is exactly 1.  The quotient is formed in work, an array like X."""
    q = np.matmul(D.T, E, out=work)
    den = D.sum(axis=0)[:, None]
    q += den
    den += lam
    X *= np.divide(np.maximum(q, EPSILON, out=q), np.maximum(den, EPSILON), out=q)
    return X


def _lin_terms(group: BasisGroup, XE, s, psi_sums):
    """Numerator and denominator of update_atom_lin, G x m x p.  psi_sums is
    1^T Psi as G x 1 x p (None for free columns), formed once per solve."""
    G, m, _ = group.coeffs.shape
    XE, s = XE.reshape(G, m, -1), s.reshape(G, m, 1)
    if group.psi is None:
        return s + XE, s
    den = s * psi_sums
    return den + XE @ group.psi, den


def update_atom_lin(group: BasisGroup, XE, s, psi_sums):
    """A <- A * (Psi^T R X_g^T) / (Psi^T 1 X_g^T) in place, formed from the
    group's rows XE of X E^T and s of X 1 as s (1^T Psi) + XE Psi over
    s (1^T Psi); with psi None the projection is skipped, which is the
    Lee-Seung step W <- W * (R X^T) / (1 X^T), s + XE over s.  psi_sums is
    as in _lin_terms."""
    num, den = _lin_terms(group, XE, s, psi_sums)
    group.coeffs *= np.maximum(num, EPSILON) / np.maximum(den, EPSILON)
    return group.coeffs


def update_atom_dense(group: BasisGroup, XE, s, alpha: float, psi_sums):
    """Density-regularized update of every row on l1-normalized coefficients,
    in place, from XE, s and psi_sums as in update_atom_lin; rows are
    renormalized so the simplex holds exactly, and each must have a positive
    sum (iterate checks)."""
    A = group.coeffs
    a_tilde = A / A.sum(axis=2, keepdims=True)
    num_lin, den_lin = _lin_terms(group, XE, s, psi_sums)
    num = (_rowdot(a_tilde, den_lin) + num_lin
           + alpha * _rowdot(a_tilde, a_tilde))
    den = den_lin + _rowdot(a_tilde, num_lin) + alpha * a_tilde
    # the quotient only where a_tilde > 0: on zero padding den can fall to
    # EPSILON and num / EPSILON overflow; there new keeps den, times 0
    new = np.maximum(den, EPSILON)
    np.divide(np.maximum(num, EPSILON), new, out=new, where=a_tilde > 0)
    new *= a_tilde
    A[:] = new / new.sum(axis=2, keepdims=True)
    return A


def _rowdot(a, b):
    """Row-wise dot products of two G x m x p arrays, as G x m x 1."""
    return np.einsum("gij,gij->gi", a, b)[..., None]


def iterate(Y, groups, settings: SolverSettings, frozen_dictionary: bool = False,
            initial_gains=None):
    """The solver: alternate one joint dictionary step and one gain update
    per iteration, for settings.iterations iterations.

    A generator.  It yields (k, V, D, X) at k = 0, the start, and after
    each iteration k: the model V = DX (K x T), the dictionary D (K x n)
    and the gains X (n x T).  They are read-only views of the solve's own
    buffers, valid until the next step: copy what must outlive it.
    Updates the groups' coefficients in place, by the rule of settings.mode.
    With frozen_dictionary only the gains are updated (Oracle baseline).
    Computes in float32 when Y is float32, else in float64, and yields the
    dictionary, gains and coefficients in that dtype; the seeded start is
    drawn in float64 and then cast.  In it the gains of each silent frame,
    a column of Y with no energy, are 0: their KL-optimal value, which every
    step keeps exactly.  Given initial_gains are used as they are.
    Deterministic given the settings seed, and no step reads the iteration
    count, so the state at k is the same whatever settings.iterations is.
    Nothing runs before the first next(): an unstarted iterate changes no
    group.  That next() raises ValueError, before any group is changed, on
    a non-finite or negative Y or initial gains, a Y with no frames, no
    group, a group of other than K rows, or a dense-mode speech row summing
    to 0.
    Psi^T, 1^T Psi and every array of the loop are formed once per solve:
    one K x T buffer for the model V and its excess E, a K x n buffer for
    E X^T, whose transpose is XE, s, the gain quotient, D^T, the ones
    that form s and 1^T Psi, and the n x 1 sparsity weights, lambda_s or
    lambda_n by the kind of each atom's group.  Each refresh writes E
    over V: nothing reads V between a refresh and the product that rewrites
    V = DX, and the state is yielded after that product.  The dictionary step rewrites D^T, whose
    transpose is D, and then recomputes V = DX.
    """
    Y = np.asarray(Y)
    dtype = np.float32 if Y.dtype == np.float32 else np.float64
    Y = np.ascontiguousarray(Y, dtype=dtype)
    K, T = Y.shape
    if not np.all(np.isfinite(Y) & (Y >= 0)):
        raise ValueError("spectrogram must be finite and non-negative")
    if T == 0:
        raise ValueError("spectrogram has no frames")
    if any((g.coeffs.shape[2] if g.psi is None else g.psi.shape[1]) != K
           for g in groups):
        raise ValueError("dictionary row count does not match spectrogram")
    dense = [settings.mode == "dense" and g.kind == "speech" and g.psi is not None
             for g in groups]
    if any(np.any(g.coeffs.sum(axis=2, dtype=dtype) <= 0)
           for g, d in zip(groups, dense) if d):
        raise ValueError("dense mode needs every speech coefficient row "
                         "to have a positive sum")
    n = sum(g.n_atoms for g in groups)
    if initial_gains is not None:
        X = np.array(initial_gains, dtype=dtype)
        if X.shape != (n, T):
            raise ValueError("initial gains shape mismatch")
        if not np.all(np.isfinite(X) & (X >= 0)):
            raise ValueError("initial gains must be finite and non-negative")
    else:
        X = np.random.default_rng(settings.seed).random((n, T))
        X = np.subtract(1.0, X, out=X).astype(dtype, copy=False)  # uniform (0, 1]
        X[:, ~Y.any(axis=0)] = 0  # a silent frame's KL-optimal gains
    for g, d in zip(groups, dense):
        g.coeffs = g.coeffs.astype(dtype, copy=False)
        if g.psi is not None:
            g.psi = g.psi.astype(dtype, copy=False)
        if d:
            g.coeffs /= g.coeffs.sum(axis=2, keepdims=True)
    D, psi_ts = _dictionary(groups)  # D^T is written group by group
    XEt, s = np.empty((K, n), dtype), np.empty((n, 1), dtype)  # XE = XEt^T
    ones_K, ones_T = np.ones((1, K), dtype), np.ones((T, 1), dtype)
    # (group, dense step?, 1^T Psi, Psi^T, and its rows of D^T, XE and s)
    layout = [(g, d, None if g.psi is None else ones_K @ g.psi, *r) for g, d, *r in zip(
        groups, dense, psi_ts, *(_rows_of(groups, a) for a in (D.T, XEt.T, s)))]
    work, V = np.empty_like(X), D @ X
    E = V  # one K x T buffer: each refresh writes E over the model V
    lam = np.repeat([_sparsity_weight(settings, g) for g in groups],
                    [g.n_atoms for g in groups]).astype(dtype)[:, None]
    state = [a.view() for a in (V, D, X)]
    for a in state:
        a.flags.writeable = False
    yield (0, *state)

    for it in range(1, settings.iterations + 1):
        if not frozen_dictionary:
            kernels.refresh_ratio(Y, V, EPSILON, E)
            np.matmul(E, X.T, out=XEt)  # faster than X E^T at small n
            np.matmul(X, ones_T, out=s)
            for g, dense, psi_sums, psi_t, dt, xe, sg in layout:
                if dense:
                    update_atom_dense(g, xe, sg, settings.alpha, psi_sums)
                else:
                    update_atom_lin(g, xe, sg, psi_sums)
                _write_rows(g, psi_t, dt)
            kernels.rank1_add(V, D, X)
        kernels.refresh_ratio(Y, V, EPSILON, E)
        update_gains(X, D, E, lam, work)
        np.matmul(D, X, out=V)
        yield (it, *state)


def solve(Y, groups, settings: SolverSettings, frozen_dictionary: bool = False,
          initial_gains=None, trace: bool = True) -> SolveResult:
    """Run iterate to the end and return its last dictionary and gains, as
    writable arrays, with the groups.

    The trace holds the objective at the start and after every iteration,
    computed from each state iterate yields; with trace=False it is empty
    and no objective is computed.  Raises iterate's ValueErrors, before any
    group is changed.
    """
    points = []
    for it, V, D, X in iterate(Y, groups, settings, frozen_dictionary,
                               initial_gains):
        if trace:
            points.append(_objective_point(it, Y, V, groups, X, settings))
    D.flags.writeable = X.flags.writeable = True  # iterate is done with them
    return SolveResult(groups, D, X, points)

