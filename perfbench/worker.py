"""One run of one workload: generate inputs, drive `harmonmf.cli.main` in a
closed loop with one client, check every output, and write the result as JSON.

run.py starts this in its own process with the BLAS thread count pinned in
the environment, so numpy never sees another value.  Run it through run.py.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import struct
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np
from harmonmf import cli

import inputs
from workloads import MODES, WORKLOADS

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NOISE_SECONDS = 10.0
NOISE_RMS = 0.1
SHAPES_R = 16
# Per-request SNR-gain floors (dB); a request at or below its floor made the
# audio clearly worse and fails.  Over 20 seeds the worst 1 s clips gained
# -0.04 dB (dense, pink noise at +5 dB) and 2.0 dB (lin, white at -5 dB).
SNR_FLOOR_DB = {"dense": -2.0, "lin": 0.0}
USEFUL_DECREASE = 1e-4
REFERENCE_ELEMENTS = 129 * 130 * 150  # matrix elements one reference run sweeps
# Typical Reference.seconds() per frame count on the 2-vCPU VM (numpy 2.4,
# OpenBLAS 1 thread) that measured BASELINE.json.  rtf_norm rescales each
# request to a host on which its reference takes this long.
REFERENCE_NOMINAL_S = {130: 0.0098, 1255: 0.0160}


@dataclass
class Clip:
    path: str
    clean: np.ndarray
    in_snr_db: float
    seconds: float


def snr_db(reference, estimate):
    err = np.sum((reference - estimate) ** 2)
    return float(10.0 * np.log10(np.sum(reference ** 2) / err))


def make_inputs(spec, seed, workdir):
    """Noise recordings and noisy clips, all derived from the seed."""
    recordings = []
    for i in range(spec["recordings"]):
        kind = inputs.NOISE_KINDS[i % 2]
        x = NOISE_RMS * inputs.noise(np.random.default_rng([seed, 1, i]), kind,
                                     NOISE_SECONDS)
        x *= min(1.0, inputs.PEAK / np.abs(x).max())
        path = os.path.join(workdir, f"noise{i}.wav")
        inputs.write_wav(path, x)
        recordings.append((path, kind))
    clips = []
    for j in range(spec["clips"]):
        kind = inputs.NOISE_KINDS[j % 2]
        rng = np.random.default_rng([seed, 2, j])
        v = inputs.voice(rng, spec["clip_s"])
        clean, noisy = inputs.mix(v, inputs.noise(rng, kind, spec["clip_s"]),
                                  inputs.SNRS_DB[j % 3])
        path = os.path.join(workdir, f"clip{j}.wav")
        inputs.write_wav(path, noisy)
        clips.append(Clip(path, clean, snr_db(clean, inputs.read_wav(path)),
                          spec["clip_s"]))
    return recordings, clips


def read_shapes(path):
    """Parse and validate a .nshp file independently of harmonmf."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 28 or data[:4] != b"NSHP":
        raise ValueError("bad .nshp header")
    K, r, sr, wl, hop = struct.unpack("<IIdII", data[4:28])
    if len(data) != 28 + 8 * K * r or K != wl // 2 + 1:
        raise ValueError(f"bad .nshp size (K={K}, r={r}, {len(data)} bytes)")
    if r != SHAPES_R or sr != inputs.SR:
        raise ValueError(f"unexpected .nshp r={r} sr={sr}")
    n = np.frombuffer(data[28:], dtype="<f8").reshape((K, r), order="F")
    if not np.all(np.isfinite(n)) or np.any(n < 0):
        raise ValueError("shape entries must be finite and non-negative")
    if np.max(np.abs(n.sum(axis=0) - 1.0)) > 1e-9:
        raise ValueError("shape columns are not unit-l1")
    return n


class Reference:
    """A fixed numpy workload shaped like the solver's inner loop: ratio
    refresh, a projection and a rank-1 update on a 129 x `frames` matrix.

    On a shared virtual machine the CPU's speed can drift by 1.5x over
    seconds to minutes, so each request is also timed against the reference
    whose matrix has the request's frame count, run just before and just
    after it.  Short matrices are dominated by per-call dispatch and long
    ones by memory traffic, as the requests they stand for are.
    """

    def __init__(self, frames):
        rng = np.random.default_rng(0)
        self.Y = rng.random((129, frames))
        self.V = rng.random((129, frames)) + 0.5
        self.R = np.empty_like(self.V)
        self.T = np.empty_like(self.V)
        self.d = rng.random(129)[:, None]
        self.x = np.zeros(frames)[None, :]
        self.iterations = max(20, REFERENCE_ELEMENTS // (129 * frames))
        self.nominal_s = REFERENCE_NOMINAL_S[frames]

    def _iterate(self, n):
        Y, V, R, T, d, x = self.Y, self.V, self.R, self.T, self.d, self.x
        for _ in range(n):
            np.maximum(V, 1e-12, out=R)
            np.divide(Y, R, out=R)
            R @ x[0]
            np.multiply(d, x, out=T)
            V += T

    def seconds(self):
        """Time the iterations after a tenth as many untimed ones bring the
        reference's arrays back into cache."""
        self._iterate(self.iterations // 10)
        t0 = time.perf_counter()
        self._iterate(self.iterations)
        return time.perf_counter() - t0


def frames(seconds):
    """Frame count harmonmf's default analysis (32 ms window, 75 % overlap at
    8 kHz: 125 frames per second, plus padding) gives a clip of `seconds`."""
    return int(round(seconds * 125)) + 5


def sha1(path):
    with open(path, "rb") as fh:
        return hashlib.sha1(fh.read()).hexdigest()


def useful_iter_ratio(trace_csv):
    """Share of iterations whose relative objective decrease exceeds 1e-4."""
    with open(trace_csv) as fh:
        totals = [float(line.split(",")[4]) for line in fh.readlines()[1:]]
    useful = sum((a - b) / abs(a) > USEFUL_DECREASE
                 for a, b in zip(totals, totals[1:]))
    return useful / (len(totals) - 1)


class Runner:
    """Issues requests, checks outputs and keeps one record per request."""

    def __init__(self, workdir, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.records = []
        self.digests = {}
        self.references = {}

    def _call(self, argv, traced, audio_s):
        """Run one request.  Return its exit code, its wall seconds, (mean of
        the matching reference's times just before and after it, that
        reference's nominal time), stdout, stderr and, if traced, its spans."""
        n = frames(audio_s)
        if n not in self.references:
            self.references[n] = Reference(n)
        reference = self.references[n]
        out, err = io.StringIO(), io.StringIO()
        spans = None
        ref_before = reference.seconds()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if traced:
                    with self.tracer.request() as spans:
                        rc = cli.main(argv)
                else:
                    rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crashing request is a failed request
                rc = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        ref_s = (ref_before + reference.seconds()) / 2
        return (rc, seconds, (ref_s, reference.nominal_s), out.getvalue(),
                err.getvalue(), spans)

    def _finish(self, record, path, problem):
        if problem is None:
            digest = sha1(path)
            record["digest"] = digest
            first = self.digests.setdefault(record["key"], digest)
            if first != digest:
                problem = "output differs from an earlier identical request"
        record["ok"] = problem is None
        if problem is not None:
            record["problem"] = problem
        self.records.append(record)
        return record

    def enhance(self, clip_index, clip, mode, shapes, role, traced=False,
                diagnostics=False):
        out_path = os.path.join(self.workdir, f"out_{clip_index}_{mode}.wav")
        argv = ["enhance", clip.path, shapes, out_path, "--mode", mode]
        if diagnostics:
            argv.append("--dump-diagnostics")
        rc, seconds, ref, _, err, spans = self._call(argv, traced, clip.seconds)
        record = {"kind": mode, "key": f"{mode}:clip{clip_index}", "role": role,
                  "seconds": seconds, "rtf": seconds / clip.seconds,
                  "ref_s": ref[0], "ref_nominal_s": ref[1], "traced": traced, "spans": spans}
        problem = None
        if rc != 0:
            problem = f"exit {rc}: {err.strip()}"
        else:
            try:
                x = inputs.read_wav(out_path)
            except (OSError, ValueError) as exc:
                x, problem = None, f"unreadable output: {exc}"
            if x is not None and x.size != clip.clean.size:
                problem = f"output length {x.size} != input {clip.clean.size}"
            elif x is not None and not np.all(np.isfinite(x)):
                problem = "non-finite output samples"
            elif x is not None:
                gain = snr_db(clip.clean, x) - clip.in_snr_db
                record["snr_gain_db"] = gain
                if not gain > SNR_FLOOR_DB[mode]:
                    problem = f"snr gain {gain:.2f} dB below {SNR_FLOOR_DB[mode]}"
        if diagnostics and problem is None:
            record["useful_iter_ratio"] = useful_iter_ratio(
                os.path.splitext(out_path)[0] + "_trace.csv")
        return self._finish(record, out_path, problem)

    def train(self, index, recording, role, traced=False):
        path, kind = recording
        out_path = os.path.join(self.workdir, f"shapes{index}.nshp")
        argv = ["train-noise", path, out_path, "--r", str(SHAPES_R)]
        rc, seconds, ref, out, err, spans = self._call(argv, traced,
                                                       NOISE_SECONDS)
        record = {"kind": "train", "key": f"train:noise{index}", "role": role,
                  "seconds": seconds, "rtf": seconds / NOISE_SECONDS,
                  "ref_s": ref[0], "ref_nominal_s": ref[1], "traced": traced, "spans": spans,
                  "noise": kind}
        problem = None
        if rc != 0:
            problem = f"exit {rc}: {err.strip()}"
        else:
            try:
                read_shapes(out_path)
                kl = float(out.rsplit("final KL divergence:", 1)[1].split()[0])
                if not (np.isfinite(kl) and kl > 0):
                    raise ValueError(f"bad final KL {kl}")
                record["kl_per_s"] = kl / NOISE_SECONDS
            except (OSError, ValueError, IndexError) as exc:
                problem = f"bad train-noise output: {exc}"
        self._finish(record, out_path, problem)
        return out_path


def closed_loop(cycle, seconds, run_one, trace, max_requests):
    """Repeat the cycle until `seconds` have passed.  Untraced runs always
    finish one full cycle, so quality metrics cover a fixed input set; traced
    runs issue each request untraced and then traced, back to back."""
    t0 = time.perf_counter()
    i = 0
    while max_requests is None or i < max_requests:
        done = i >= (2 if trace else len(cycle))
        if done and time.perf_counter() - t0 >= seconds:
            break
        item = cycle[i % len(cycle)]
        run_one(item, False)
        if trace:
            run_one(item, True)
        i += 1


def train_noise_cycle(recordings, clips):
    """Each training is followed by enhancing, in both modes, its share of the
    clips whose noise kind it was trained on, so enhance and train requests
    are spread over the whole run."""
    share = len(clips) // len(recordings)
    cycle = []
    for i, (_, kind) in enumerate(recordings):
        same_kind = [j for j in range(len(clips))
                     if inputs.NOISE_KINDS[j % 2] == kind]
        group = same_kind[(i // 2) * share:(i // 2 + 1) * share]
        cycle.append(("train", i))
        cycle += [("enhance", j, mode, i) for j in group for mode in MODES]
    return cycle


def run(workload, seed, seconds, trace, workdir, max_requests=None):
    spec = WORKLOADS[workload]
    recordings, clips = make_inputs(spec, seed, workdir)
    input_bytes = sum(os.path.getsize(os.path.join(workdir, f))
                      for f in os.listdir(workdir))
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    runner = Runner(workdir, tracer)

    if spec["primary"] == "enhance":
        shapes = [runner.train(i, rec, "setup", traced=trace)
                  for i, rec in enumerate(recordings)]
        cycle = [(j, mode) for j in range(len(clips)) for mode in MODES]

        def run_one(item, traced):
            j, mode = item
            # recording i has noise kind i % 2 and clip j kind j % 2, so clip j
            # uses shapes of its own kind; spreading the clips over all the
            # shape sets averages the SNR gain over more trainings' luck
            runner.enhance(j, clips[j], mode, shapes[j % len(shapes)], "primary",
                           traced)
    else:
        shapes = [None] * len(recordings)
        cycle = train_noise_cycle(recordings, clips)

        def run_one(item, traced):
            if item[0] == "train":
                i = item[1]
                shapes[i] = runner.train(i, recordings[i], "primary", traced)
            else:
                _, j, mode, i = item
                runner.enhance(j, clips[j], mode, shapes[i], "check", traced)

    closed_loop(cycle, seconds, run_one, trace, max_requests)
    if trace:
        for mode in MODES:
            runner.enhance(0, clips[0], mode, shapes[0], "diagnostics",
                           traced=True, diagnostics=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "input_bytes": input_bytes,
        "clean_reference_bytes": sum(c.clean.nbytes for c in clips),
        "peak_rss_mb": rss_mb,
        "env": environment(),
        "records": runner.records,
    }


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    harmonmf = sys.modules["harmonmf"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "harmonmf_backend": getattr(harmonmf, "BACKEND", None),
        "harmonmf_file": os.path.relpath(harmonmf.__file__),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--max-requests", type=int, default=None)
    args = parser.parse_args(argv)
    missing = [v for v in BLAS_ENV if not os.environ.get(v)]
    if missing:
        parser.error(f"BLAS thread count not pinned: {', '.join(missing)} unset")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.workdir, args.max_requests)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
