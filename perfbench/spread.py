#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--first-seed 1]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
on each workload, and prints for every end-to-end metric its median and
its quartile spread, (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4), next to a third of the metric's bound
from BENCHMARK.json. Run from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in contract["workloads"]))
    args = ap.parse_args()
    ok = True
    for wl in args.workloads.split(","):
        values = {m["name"]: [] for m in contract["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", wl,
                 "--seed", str(seed), "--seconds",
                 str(contract["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(f"{wl} seed {seed}: run failed", file=sys.stderr)
                ok = False
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
        for m in contract["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            limit = m["bound"] / 3
            flag = "" if spread < limit or m["name"] == "setup_s" else "  WIDE"
            if flag:
                ok = False
            print(f"{wl:17s} {m['name']:15s} median {med:14.6g} "
                  f"spread {spread:7.4f} (bound/3 {limit:.4f}){flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
