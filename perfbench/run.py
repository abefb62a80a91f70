#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the `perfbench` binary from
the checkout's sources (CMake, into .bench_build/perfbench), runs the named
workload in its own process, checks the simulated outputs and prints every
metric by name with its unit. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end-to-end metrics (untraced run); with
--trace 1 they are its per-layer metrics (traced run: ladder, per-job split
and tracing overhead).

Extra options (not used by the benchmark contract):
    --tiny               shrink every input (self-tests, about a second a run)
    --expect-digest HEX  override the recorded output digest for this run

Exit status: 0 when every check passed; 1 when an output check failed (the
result line is still printed, with "correct": false); 2 when nothing could
be measured (no sources, failed build, unfit environment) -- then no
result line is printed.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
DEFAULT_SEED = 1
WORKLOADS = ("replay_stream", "sweep_suite", "sweep_tiny", "hierarchy_stream")
RUN_TIMEOUT_S = 170


def refuse(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then bring the binary up to date (a no-op rebuild
    when nothing changed). Build output goes to stderr."""
    if not (ROOT / "src" / "sim" / "runner.cpp").is_file():
        refuse(f"simulator sources not found under {ROOT / 'src'}; "
               "run from the root of a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  check=False)
        except OSError as e:
            refuse(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            refuse(f"build step failed: {' '.join(cmd)}")
    return BUILD / "perfbench"


def load_contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def expected_digest(workload, size, seed):
    path = HERE / "expected_digests.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return None
    with open(path, encoding="utf-8") as f:
        return json.load(f).get(f"{workload}/{size}")


def run_binary(binary, args):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(WORK / args.workload)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        refuse(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    if done.returncode == 2:
        # Armed failpoints, an engine override (CNT_JOBS, CNT_RETRIES,
        # CNT_JOB_TIMEOUT_MS) or an unoptimised/sanitised build.
        refuse("perfbench refused to measure (see above)")
    lines = done.stdout.strip().splitlines()
    if not lines:
        refuse(f"perfbench exited {done.returncode} without a report")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--expect-digest")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        refuse("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    report = run_binary(binary, args)
    size = "tiny" if args.tiny else "full"
    failed = report["failed"]
    attempted = report["attempted"]
    problems = list(report["problems"])

    # Output-correctness gate: the recorded digest for the default seed.
    want = args.expect_digest or expected_digest(args.workload, size,
                                                 args.seed)
    if want is not None:
        attempted += 1
        if want != report["digest"]:
            failed += 1
            problems.append(f"digest {report['digest']} != recorded {want}")

    contract = load_contract()
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    measured = report["metrics"]
    if "error_rate" in measured:
        measured["error_rate"]["value"] = failed / attempted
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            refuse(f"perfbench did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    for p in problems:
        print(f"perfbench: {args.workload}: {p}", file=sys.stderr)
    for name, v in metrics.items():
        print(f"{name:40s} {v['value']:>20.6f} {v['unit']}")
    record = dict(report["record"], digest=report["digest"])
    print("record " + json.dumps(record, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    out = WORK / args.workload / f"result_trace{args.trace}.json"
    out.write_text(json.dumps(dict(result, record=record,
                                   all_metrics=measured,
                                   problems=problems), indent=1) + "\n",
                   encoding="utf-8")
    print(json.dumps(result))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
