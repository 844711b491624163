"""Repeat the benchmark over seeds and summarise each end-to-end metric.

Usage (from the repository root):

    python3 perfbench/steadiness.py --runs 10 [--first-seed 1] [--out FILE --label NAME] [workload ...]

Each run uses another seed.  For every workload and metric it reports the
median, the first and third quartile (``statistics.quantiles(n=4)``) and
the spread, (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json.  Runs are sequential, so they do not compete for cores.
With ``--out`` the summary is merged into that JSON file under
``<label>/<workload>``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--label", default="runs")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    summary = {}
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(done.stdout, file=sys.stderr)
                return 1
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k} {v:.4g}" for k, v in runs[-1].items()), flush=True)
        metrics = {}
        for name, bound in bounds.items():
            metrics[name] = summarise([run[name] for run in runs]) | {"bound": bound}
            m = metrics[name]
            print(f"  {name}: median {m['median']:.4g}, q1 {m['q1']:.4g}, q3 {m['q3']:.4g}, "
                  f"spread {m['spread']:.3f} (bound {bound}, third {bound / 3:.3f})", flush=True)
        summary[workload] = {
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "metrics": metrics,
        }
    if args.out:
        existing = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as handle:
                existing = json.load(handle)
        existing.setdefault(args.label, {}).update(summary)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(existing, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
