"""Numeric kernels of the multiplicative-update solver: the excess-ratio
refresh E = Y / max(V, eps) - 1, which may overwrite V, V = D X in place
after a dictionary step, and the floored KL divergence.

They stay in their own module, called as ``kernels.<name>``, so that a
profiler can wrap each one by its module attribute.
"""
import numpy as np

KL_ROWS = 16  # rows of Y and V that kl_divergence_floored takes at a time


def refresh_ratio(Y, V, eps, out):
    """out = Y / max(V, eps) - 1, elementwise, in place: the excess E of the
    ratio over 1, exactly 0 where Y = V >= eps.  out may be V itself.  The
    floor is formed only when some V is below eps (or NaN); otherwise
    max(V, eps) is V, so dividing by V gives the same bits.  The name is the
    profiler's hook, as for rank1_add, and says ratio although E is the
    ratio less 1."""
    np.divide(Y, V if V.min() >= eps else np.maximum(V, eps, out=out), out=out)
    out -= 1.0
    return out


def rank1_add(V, D, X):
    """V = D X in place, after a dictionary step, for the K x n dictionary D
    and the n x T gains X.  The name is the profiler's hook: it is older than
    this form, and profilers wrap the function by it."""
    return np.matmul(D, X, out=V)


def kl_divergence_floored(Y, V, eps):
    """Generalized KL divergence sum(Y log(Y/V) - Y + V) with V floored at eps,
    for non-negative Y.

    Zero entries of Y contribute V only (0*log 0 taken as 0): their ratio is
    left at 1, whose log is 0.  Formed without gathers, as
    Y . log(Y/V) - sum(Y) + sum(V), computed and accumulated in float64
    whatever the dtype of Y and V, over KL_ROWS rows at a time: no float64
    copy of the whole of Y or V is built.
    """
    Y, V, total = np.asarray(Y), np.asarray(V), 0.0
    for k in range(0, len(Y), KL_ROWS):
        y = np.asarray(Y[k:k + KL_ROWS], dtype=np.float64)
        v = np.maximum(V[k:k + KL_ROWS], eps, dtype=np.float64)
        log = np.divide(y, v, where=y > 0, out=np.ones_like(y))
        np.log(log, out=log)
        total += np.vdot(y, log) - y.sum() + v.sum()
    return float(total)
