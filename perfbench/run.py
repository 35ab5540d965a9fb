"""harmonmf benchmark: end-to-end RTF and SNR gain per workload, or the
per-layer trace.

    python3 perfbench/run.py --workload enhance-long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import MODES, WORKLOADS  # noqa: E402

BLAS_THREADS = "1"  # 2 threads were no faster on 2 cores, and change output bytes
SETUP_REPEATS = 11
# setup_s rescales the import time to a host on which `import numpy` in a
# fresh interpreter takes this long: its typical time on the 2-vCPU host that
# measured BASELINE.json.
NUMPY_IMPORT_NOMINAL_S = 0.145
WORKER_TIMEOUT_S = 170
RUN_DIR = ".perfbench_runs"
TAIL_BEYOND = 10
SMOKE_REQUESTS = 3  # covers dense, lin and, on train-noise, one training

END_TO_END = {
    "setup_s": "s",
    "rtf_norm_p50.dense": "s/s",
    "rtf_norm_p50.lin": "s/s",
    "rtf_norm_p50.train": "s/s",
    "snr_gain_db.dense": "dB",
    "snr_gain_db.lin": "dB",
    "train_kl_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (traced layer, field): field 0 is seconds, 1 self
# seconds, 2 calls.  Medians per request over the workload's primary
# requests; a layer those never call comes from its other traced requests.
LAYER_FIELDS = {
    "kernels.refresh_ratio_s": ("kernels.refresh_ratio", 0),
    "kernels.refresh_ratio_calls": ("kernels.refresh_ratio", 2),
    "kernels.rank1_add_s": ("kernels.rank1_add", 0),
    "kernels.rank1_add_calls": ("kernels.rank1_add", 2),
    "kernels.kl_divergence_floored_s": ("kernels.kl_divergence_floored", 0),
    "kernels.kl_divergence_floored_calls": ("kernels.kl_divergence_floored", 2),
    "nmf.solve_s": ("nmf.solve", 0),
    "nmf.solve_self_s": ("nmf.solve", 1),
    "nmf.atom_update_s": ("nmf.atom_update", 0),
    "nmf.atom_update_calls": ("nmf.atom_update", 2),
    "nmf.update_gains_s": ("nmf.update_gains", 0),
    "nmf.update_gains_calls": ("nmf.update_gains", 2),
    "dictionary.build_harmonic_basis_s": ("dictionary.build_harmonic_basis", 0),
    "dictionary.build_harmonic_basis_calls": ("dictionary.build_harmonic_basis", 2),
    "dictionary.load_noise_shapes_s": ("dictionary.load_noise_shapes", 0),
    "dictionary.train_noise_shapes_s": ("dictionary.train_noise_shapes", 0),
    "dictionary.save_noise_shapes_s": ("dictionary.save_noise_shapes", 0),
    "stft.stft_s": ("stft.stft", 0),
    "stft.istft_s": ("stft.istft", 0),
    "enhance.wiener_reconstruct_s": ("enhance.wiener_reconstruct", 0),
    "signal_io.read_wav_s": ("signal_io.read_wav", 0),
    "signal_io.write_wav_s": ("signal_io.write_wav", 0),
    "cli.self_s": ("cli", 1),
    "cli.request_s": ("cli", 0),
}
PER_LAYER = {name: ("count" if name.endswith("_calls") else "s")
             for name in LAYER_FIELDS}
PER_LAYER.update({
    "kernels.bytes_computed": "bytes",
    "nmf.solve_share": "ratio",
    "nmf.useful_iter_ratio": "ratio",
    "trace_overhead_ratio": "ratio",
})


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def wall_seconds(cmd, env):
    """Wall time of one run of cmd.  No timeout is given, so the parent
    blocks in waitpid and sees the exit at once; with a timeout, subprocess
    polls with sleeps of up to 50 ms."""
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, check=True)
    return time.perf_counter() - t0


def measure_setup(env):
    """Time fresh interpreters importing harmonmf.cli, each between two
    importing numpy alone.  Return the median ratio of the one to the mean of
    the two, times NUMPY_IMPORT_NOMINAL_S.  numpy is not part of harmonmf, so
    its import follows only the host's speed, which drifts by 1.5x on a
    shared VM: over ten runs the raw import time spread by 34 %, the ratio
    by 2.5 %."""
    cli = [sys.executable, "-c", "import harmonmf.cli"]
    numpy = [sys.executable, "-c", "import numpy"]
    wall_seconds(cli, env)  # fills bytecode caches
    before = wall_seconds(numpy, env)
    ratios = []
    for _ in range(SETUP_REPEATS):
        seconds = wall_seconds(cli, env)
        after = wall_seconds(numpy, env)
        ratios.append(2.0 * seconds / (before + after))
        before = after
    return statistics.median(ratios) * NUMPY_IMPORT_NOMINAL_S


def run_worker(workload, seed, seconds, trace, env, max_requests=None):
    os.makedirs(RUN_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    workdir = os.path.join(RUN_DIR, "work-" + tag)
    out = os.path.join(RUN_DIR, tag + ".json")
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--workdir", workdir, "--out", out]
    if max_requests is not None:
        cmd += ["--max-requests", str(max_requests)]
    try:
        subprocess.run(cmd, env=env, check=True, timeout=WORKER_TIMEOUT_S)
        with open(out) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def median_or_none(values):
    return statistics.median(values) if values else None


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it, or None when that percentile would not lie above the median."""
    n = len(values)
    idx = n - TAIL_BEYOND - 1
    if idx < n // 2:
        return None
    return sorted(values)[idx], 100.0 * (idx + 1) / n


def first_per_key(records, field):
    """One value per distinct input: repeats of a request are byte-identical."""
    seen = {}
    for r in records:
        if field in r:
            seen.setdefault(r["key"], r[field])
    return list(seen.values())


def end_to_end_metrics(result, setup_s):
    timed = [r for r in result["records"]
             if r["ok"] and not r["traced"] and r["role"] != "diagnostics"]
    metrics = {"setup_s": setup_s, "peak_rss_mb": result["peak_rss_mb"]}
    latency = {}
    for kind in (*MODES, "train"):
        rtfs = [r["rtf"] for r in timed if r["kind"] == kind]
        metrics[f"rtf_norm_p50.{kind}"] = median_or_none(
            [r["rtf"] * r["ref_nominal_s"] / r["ref_s"]
             for r in timed if r["kind"] == kind])
        latency[kind] = (median_or_none(rtfs), tail(rtfs), len(rtfs))
    for mode in MODES:
        gains = first_per_key([r for r in timed if r["kind"] == mode], "snr_gain_db")
        metrics[f"snr_gain_db.{mode}"] = statistics.fmean(gains) if gains else None
    kl = first_per_key([r for r in timed if r["kind"] == "train"], "kl_per_s")
    metrics["train_kl_per_s"] = statistics.fmean(kl) if kl else None
    return metrics, latency


def request_layers(record):
    spans = record["spans"]
    values = {}
    for name, (layer, field) in LAYER_FIELDS.items():
        if layer in spans:
            values[name] = spans[layer][field]
    values["kernels.bytes_computed"] = spans["bytes"]
    if "nmf.solve" in spans:
        values["nmf.solve_share"] = spans["nmf.solve"][0] / spans["cli"][0]
    return values


def layer_metrics(result):
    traced = [r for r in result["records"] if r["traced"] and r["ok"]]
    primary = [request_layers(r) for r in traced if r["role"] == "primary"]
    others = [request_layers(r) for r in traced if r["role"] != "primary"]
    metrics = {}
    for name in PER_LAYER:
        if any(name in v for v in primary):
            values = [v.get(name, 0) for v in primary]
        else:
            values = [v[name] for v in others if name in v]
        if values:
            metrics[name] = statistics.median(values)
    records = [r for r in result["records"] if r["role"] == "primary" and r["ok"]]
    ratios = [b["seconds"] / a["seconds"] for a, b in zip(records, records[1:])
              if not a["traced"] and b["traced"] and a["key"] == b["key"]]
    if ratios:
        metrics["trace_overhead_ratio"] = statistics.median(ratios)
    useful = [r["useful_iter_ratio"] for r in traced if "useful_iter_ratio" in r]
    if useful:
        metrics["nmf.useful_iter_ratio"] = statistics.median(useful)
    return metrics


def output_digest(result):
    """sha1 over the first output of every distinct request, key-sorted."""
    digests = {}
    for r in result["records"]:
        if "digest" in r:
            digests.setdefault(r["key"], r["digest"])
    joined = "\n".join(f"{k} {v}" for k, v in sorted(digests.items()))
    return hashlib.sha1(joined.encode()).hexdigest(), digests


def report(result, setup_s, trace):
    """Print the human-readable lines; return the final JSON object."""
    records = result["records"]
    failed = [r for r in records if not r["ok"]]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {int(trace)}"
          f"  requests {len(records)}  failed {len(failed)}")
    print(f"  failed_ratio        {len(failed) / len(records):.4f}"
          f"  ({len(failed)}/{len(records)})")
    for r in failed:
        print(f"  FAILED {r['key']} ({r['role']}): {r.get('problem')}")
    print(f"  env                 {json.dumps(result['env'], sort_keys=True)}")
    print(f"  inputs              {result['input_bytes']} bytes of WAV on disk, "
          f"{result['clean_reference_bytes']} bytes of clean references in memory"
          " (both inside peak_rss_mb's process)")
    digest, digests = output_digest(result)
    print(f"  output digest       {digest} over {len(digests)} distinct outputs")
    if trace:
        metrics = layer_metrics(result)
        spec = PER_LAYER
    else:
        metrics, latency = end_to_end_metrics(result, setup_s)
        spec = END_TO_END
    for name, unit in spec.items():
        value = metrics.get(name)
        shown = "absent" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<38s}{shown}")
    if not trace:
        for kind, (p50, t, n) in latency.items():
            shown = "absent" if p50 is None else f"{p50:.6g} s/s  (N={n})"
            print(f"  {'rtf_p50.' + kind:<38s}{shown}")
            shown = (f"omitted (N={n} is too few)" if t is None else
                     f"{t[0]:.6g} s/s  (p{t[1]:.0f} of N={n})")
            print(f"  {'rtf_tail.' + kind:<38s}{shown}")
    present = {k: v for k, v in metrics.items() if k in spec and v is not None}
    correct = not failed and len(present) == len(spec)
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": spec[k]} for k, v in present.items()},
    }


def require(condition, message):
    if not condition:
        raise RuntimeError(message)


def check_schema(line, spec):
    obj = json.loads(line)
    require(set(obj) == {"correct", "attempted", "failed", "metrics"},
            f"result keys {sorted(obj)}")
    require(obj["correct"] is True and obj["failed"] == 0 and obj["attempted"] >= 1,
            f"run not correct: {obj}")
    require(set(obj["metrics"]) == set(spec),
            f"metrics differ from spec: {sorted(set(spec) ^ set(obj['metrics']))}")
    for name, m in obj["metrics"].items():
        require(set(m) == {"value", "unit"} and m["unit"] == spec[name]
                and isinstance(m["value"], (int, float)), f"bad metric {name}: {m}")


def smoke(env):
    """A few requests per workload, twice untraced and once traced:
    checks the harness runs, its output schema, and that the two untraced runs
    wrote byte-identical outputs.  Not a timing gate."""
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as fh:
            bench = json.load(fh)
        for key, spec in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in bench[key]}
            require(declared == spec, f"BENCHMARK.json {key} differs from run.py")
        require(sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS),
                "BENCHMARK.json workloads differ from workloads.py")
    setup_s = measure_setup(env)
    for workload in WORKLOADS:
        runs = [run_worker(workload, 1, 0, trace, env, max_requests=SMOKE_REQUESTS)
                for trace in (False, False, True)]
        first, second, traced = runs
        for result, trace in ((first, False), (traced, True)):
            obj = report(result, setup_s, trace)
            check_schema(json.dumps(obj), PER_LAYER if trace else END_TO_END)
        a, b = output_digest(first)[1], output_digest(second)[1]
        require(a == b, f"{workload}: outputs differ between two identical runs")
        print(f"smoke {workload}: ok ({len(a)} outputs identical across two runs)")
    print("smoke: ok")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one request per workload; checks schema and determinism")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "harmonmf", "cli.py")):
        print("error: run from the harmonmf repository root (src/harmonmf/cli.py "
              "not found)", file=sys.stderr)
        return 2
    env = child_env()
    if args.smoke:
        return smoke(env)
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required unless --smoke is given")
    trace = bool(args.trace)
    setup_s = measure_setup(env)
    result = run_worker(args.workload, args.seed, args.seconds, trace, env)
    obj = report(result, setup_s, trace)
    print(json.dumps(obj))
    return 0


if __name__ == "__main__":
    sys.exit(main())
