"""Numeric kernels of the multiplicative-update solver: the ratio refresh,
V = D X in place after a dictionary step, and the floored KL divergence.

They stay in their own module, called as ``kernels.<name>``, so that a
profiler can wrap each one by its module attribute.
"""
import numpy as np


def refresh_ratio(Y, V, eps, out):
    """out = Y / max(V, eps), elementwise, in place."""
    np.maximum(V, eps, out=out)
    np.divide(Y, out, out=out)
    return out


def rank1_add(V, D, X):
    """V = D X in place, after a dictionary step, for the K x n dictionary D
    and the n x T gains X.  The name is the profiler's hook: it is older than
    this form, and profilers wrap the function by it."""
    return np.matmul(D, X, out=V)


def kl_divergence_floored(Y, V, eps):
    """Generalized KL divergence sum(Y log(Y/V) - Y + V) with V floored at eps.

    Zero entries of Y contribute V only (0*log 0 taken as 0).  Computed and
    accumulated in float64 whatever the dtype of Y and V.
    """
    Y = np.asarray(Y, dtype=np.float64)
    Vf = np.maximum(np.asarray(V, dtype=np.float64), eps)
    pos = Y > 0
    Yp = Y[pos]
    return float(np.sum(Yp * np.log(Yp / Vf[pos]) - Yp) + Vf.sum())
