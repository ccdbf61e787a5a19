#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seconds 20 --seeds 1-10 [--workloads a,b] [--out f.jsonl]

Runs `run.py --trace 0` once per seed and workload (every workload in
BENCHMARK.json unless `--workloads` names some), from the repository root,
and prints per workload and metric the median of the runs with its unit
and the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. Bounds
from BENCHMARK.json are printed beside each spread. With `--out`, every
result line is appended to that file with the run's wall time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for workload in names:
        values = {}
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            started = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            wall_s = time.perf_counter() - started
            result = json.loads(done.stdout.splitlines()[-1])
            if args.out:
                with open(args.out, "a") as f:
                    row = {"workload": workload, "seed": seed, "wall_s": wall_s, **result}
                    f.write(json.dumps(row) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault((name, metric["unit"]), []).append(metric["value"])
        for (name, unit), vals in values.items():
            median = statistics.median(vals)
            spread = "n/a"
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = f"{(q3 - q1) / median:.4f}"
            print(f"{workload:18} {name:12} n={len(vals):2} median={median:.6g} {unit:3} "
                  f"spread={spread} bound={bounds.get(name)}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
