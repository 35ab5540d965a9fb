"""Outside-in tracing of harmonmf layers.

Each measured function is wrapped where its caller looks it up (a module
attribute), so nothing in the package changes.  A target whose attribute no
longer exists is skipped and its metrics are absent, not zero.  Spans nest:
a span's self time is its duration minus the time of the spans it encloses.
"""
from __future__ import annotations

import contextlib
import importlib
import time


def _array_bytes(*arrays):
    return sum(getattr(a, "nbytes", 0) for a in arrays)


# Computed bytes: the minimum traffic of each kernel's operands (read every
# input once, write every output once).  Cache misses are not counted.
def _ratio_bytes(Y, V, eps, out):
    return _array_bytes(Y, V, out)


def _rank1_bytes(V, d, x):
    return 2 * _array_bytes(V) + _array_bytes(d, x)


def _kl_bytes(Y, V, eps):
    return _array_bytes(Y, V)


# (layer name, module where the caller looks the function up, attribute,
#  computed-bytes function or None)
TARGETS = (
    ("kernels.refresh_ratio", "harmonmf.kernels", "refresh_ratio", _ratio_bytes),
    ("kernels.rank1_add", "harmonmf.kernels", "rank1_add", _rank1_bytes),
    ("kernels.kl_divergence_floored", "harmonmf.kernels", "kl_divergence_floored",
     _kl_bytes),
    ("nmf.solve", "harmonmf.nmf", "solve", None),
    ("nmf.atom_update", "harmonmf.nmf", "update_atom_lin", None),
    ("nmf.atom_update", "harmonmf.nmf", "update_atom_dense", None),
    ("nmf.update_gains", "harmonmf.nmf", "update_gains", None),
    ("dictionary.build_harmonic_basis", "harmonmf.enhance", "build_harmonic_basis",
     None),
    ("dictionary.load_noise_shapes", "harmonmf.cli", "load_noise_shapes", None),
    ("dictionary.train_noise_shapes", "harmonmf.cli", "train_noise_shapes", None),
    ("dictionary.save_noise_shapes", "harmonmf.cli", "save_noise_shapes", None),
    ("stft.stft", "harmonmf.enhance", "stft", None),
    ("stft.stft", "harmonmf.cli", "stft", None),
    ("stft.istft", "harmonmf.enhance", "istft", None),
    ("enhance.wiener_reconstruct", "harmonmf.enhance", "wiener_reconstruct", None),
    ("signal_io.read_wav", "harmonmf.cli", "read_wav", None),
    ("signal_io.write_wav", "harmonmf.cli", "write_wav", None),
)


class Tracer:
    """Per-request span totals for the wrapped functions.

    Use as ``with tracer.request() as spans: cli.main(...)``; the wrappers are
    installed only inside the block, so untraced requests pay nothing.
    """

    def __init__(self):
        self._originals = []
        for name, module, attr, bytes_fn in TARGETS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is not None:
                self._originals.append((name, mod, attr, fn, bytes_fn))

    @contextlib.contextmanager
    def request(self):
        """Install the wrappers for one request and yield a dict that maps
        layer name to [seconds, self seconds, calls].  The root
        entry ``cli`` covers the whole request, and ``bytes`` holds the
        computed kernel bytes."""
        spans = {}
        stack = [0.0]
        nbytes = [0]
        perf_counter = time.perf_counter

        def wrap(name, fn, bytes_fn):
            def traced(*args, **kwargs):
                if bytes_fn is not None:
                    nbytes[0] += bytes_fn(*args, **kwargs)
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    span = spans.setdefault(name, [0.0, 0.0, 0])
                    span[0] += dt
                    span[1] += dt - child
                    span[2] += 1
            return traced

        for name, mod, attr, fn, bytes_fn in self._originals:
            setattr(mod, attr, wrap(name, fn, bytes_fn))
        t0 = perf_counter()
        try:
            yield spans
        finally:
            wall = perf_counter() - t0
            for name, mod, attr, fn, bytes_fn in self._originals:
                setattr(mod, attr, fn)
            spans["cli"] = [wall, wall - stack[0], 1]
            spans["bytes"] = nbytes[0]
