#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check
computes it: for each workload, run the benchmark once per seed, then for
each metric report the median and the distance between the first and third
quartiles (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --seeds 10 [--workloads fleet_live,...]

Exits 1 if a run fails or is incorrect, or any metric's spread, setup_s
included, exceeds its bound. A spread above a third of its bound is
marked: that is the margin the benchmark aims for, so that two sets of
runs of the same code also agree within the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, spec["run_seconds"])
            if result is None or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: failed run: {result}")
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={values[n][-1]:.6g}" for n in values), flush=True)
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            bound = metric["bound"]
            verdict = ("OVER BOUND" if spread > bound else
                       "above bound/3" if spread > bound / 3 else "")
            ok = ok and spread <= bound
            print(f"  {workload:13s} {metric['name']:15s} median "
                  f"{statistics.median(vals):12.6g} spread {spread:7.4f} "
                  f"(bound {bound:.4f}) {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
