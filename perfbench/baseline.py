"""Measure a baseline: run.py on several seeds per workload, untraced, plus
one traced run per workload; write medians, quartiles and spreads as JSON.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BASELINE.json

Run from the repository root.  Runs are sequential, so nothing else competes
for the cores while a run is timed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import END_TO_END, PER_LAYER
from workloads import WORKLOADS


def parse_seeds(text):
    lo, hi = (int(v) for v in text.split("-"))
    return list(range(lo, hi + 1))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    env = next(line.split(None, 1)[1] for line in lines
               if line.strip().startswith("env "))
    return json.loads(lines[-1]), json.loads(env), time.perf_counter() - t0


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med), "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="a range, as in 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    seeds = parse_seeds(args.seeds)
    out = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        runs, walls, env = [], [], None
        for seed in seeds:
            obj, env, wall = one_run(workload, seed, seconds, 0)
            runs.append(obj)
            walls.append(wall)
            print(f"{workload} seed {seed}: correct {obj['correct']} "
                  f"failed {obj['failed']}/{obj['attempted']} wall {wall:.1f} s",
                  flush=True)
        traced, _, wall = one_run(workload, seeds[0], seconds, 1)
        entry = {
            "env": env,
            "all_correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_wall_s": walls,
            "end_to_end": {
                name: dict(unit=unit, **summarize(
                    [r["metrics"][name]["value"] for r in runs]))
                for name, unit in END_TO_END.items()},
            "per_layer": {name: traced["metrics"][name]["value"]
                          for name in PER_LAYER if name in traced["metrics"]},
            "traced_run": {"seed": seeds[0], "wall_s": wall},
        }
        out["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"  {name:<22s} median {s['median']:.6g} {s['unit']}"
                  f"  quartiles [{s['q1']:.6g}, {s['q3']:.6g}]"
                  f"  spread {s['spread']:.4f}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
