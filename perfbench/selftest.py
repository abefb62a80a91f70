#!/usr/bin/env python3
"""Self-tests of the benchmark, at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that:
  * every workload, untraced and traced, emits every metric BENCHMARK.json
    names, with its unit, exits 0, and reproduces its recorded tiny digest;
  * a deliberately wrong expected digest makes the command exit non-zero,
    report "correct": false and an error_rate above 0;
  * an engine override in the environment (CNT_JOBS) makes the command
    refuse: non-zero exit and no result line.
Exits 0 when all checks pass.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace, extra=(), env=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
           *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env,
                          timeout=300, check=False)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done.stderr


def main():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    # All four workloads, including the two BENCHMARK.json does not gate.
    for wl in ("replay_stream", "sweep_suite", "sweep_tiny",
               "hierarchy_stream"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(wl, trace)
            expect(code == 0 and result is not None and result["correct"],
                   f"{wl} trace={trace}: exit 0 and correct"
                   + ("" if code == 0 else f" (exit {code}: {err[-400:]})"))
            if result is None:
                continue
            for m in contract[key]:
                got = result["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"]
                       and isinstance(got["value"], (int, float)),
                       f"{wl} trace={trace}: {m['name']} in {m['unit']}")
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"},
                   f"{wl} trace={trace}: result keys")

    code, result, _ = run("replay_stream", 1,
                          extra=("--expect-digest", "0000000000000000"))
    expect(code != 0 and result is not None and not result["correct"]
           and result["metrics"]["error_rate"]["value"] > 0,
           "wrong expected digest: non-zero exit, correct=false, "
           "error_rate > 0")

    env = dict(os.environ, CNT_JOBS="2")
    code, result, _ = run("sweep_tiny", 0, env=env)
    expect(code != 0 and result is None,
           "CNT_JOBS set: refused, no result line")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
