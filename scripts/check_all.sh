#!/usr/bin/env bash
# One-stop local quality gate: documentation drift, cnt-lint static
# analysis (text findings, then the machine-readable JSON surface, the
# suppression audit and the include-layering DAG), the cnt-fuzz ingest
# wall, the results regression check, the golden-ledger suite (ctest -L
# golden), the cnt-crash crash-consistency wall, the cnt-chaos hung-work
# wall and the perfbench self-tests, in that order.
#
#   scripts/check_all.sh [build_dir] [results.json]
#
# build_dir defaults to `build` and must contain the compiled tree
# (tools/cnt-lint/cnt-lint, tools/cnt-fuzz/cnt-fuzz, examples/cnt_sim,
# tools/cnt-crash/cnt-crash and tools/cnt-chaos/cnt-chaos). When no
# results.json is given, a smoke run of cnt_sim against a generated
# minimal config feeds check_regression.py instead.
#
# Every missing prerequisite is a loud exit-2 failure -- this script
# never skips a leg silently.
set -u

cd "$(dirname "$0")/.." || exit 1

build_dir=${1:-build}
results_json=${2:-}
fail=0

say() { echo "check_all: $1"; }
die() {
  echo "check_all: $1" >&2
  exit 2
}

[ -d "$build_dir" ] || die "build directory not found: $build_dir (run: cmake --preset default && cmake --build --preset default)"

# --- leg 1: documentation drift -------------------------------------------
say "[1/9] scripts/check_docs.sh"
scripts/check_docs.sh || fail=1

# --- leg 2: cnt-lint over the whole tree ----------------------------------
lint_bin="$build_dir/tools/cnt-lint/cnt-lint"
[ -x "$lint_bin" ] || die "cnt-lint binary not found: $lint_bin (build the default preset first)"
say "[2/9] cnt-lint src bench examples tests tools"
"$lint_bin" src bench examples tests tools --exclude=tests/lint/fixtures || fail=1

# --- leg 3: lint JSON surface, suppression audit, include DAG -------------
# The JSON pass proves the machine-readable surface parses and reports a
# clean tree; the audit fails on any suppression that no longer silences
# a finding; the DAG dump exits non-zero on an include-layer cycle. The
# fixture exclusion matters for the graph too: the R8 fixture's
# deliberate cache->sim back-edge would otherwise close a cycle.
say "[3/9] cnt-lint --format=json / --report-unused-suppressions / --dump-include-graph=dot"
"$lint_bin" --format=json src bench examples tests tools --exclude=tests/lint/fixtures \
  | python3 -c 'import json,sys; r = json.load(sys.stdin); sys.exit(0 if r["schema"] == "cnt-lint-v1" and r["count"] == 0 else 1)' || fail=1
"$lint_bin" --report-unused-suppressions src bench examples tests tools --exclude=tests/lint/fixtures || fail=1
"$lint_bin" --dump-include-graph=dot src bench examples tests tools --exclude=tests/lint/fixtures \
  > "$build_dir/include_graph.dot" || fail=1

# --- leg 4: deterministic fuzz wall over every ingest parser --------------
fuzz_bin="$build_dir/tools/cnt-fuzz/cnt-fuzz"
[ -x "$fuzz_bin" ] || die "cnt-fuzz binary not found: $fuzz_bin (build the default preset first)"
say "[4/9] cnt-fuzz --target all --seed 1 --runs 2000 --check-corpus"
"$fuzz_bin" --corpus-root tests/fuzz/corpus --target all --seed 1 --runs 2000 --check-corpus || fail=1

# --- leg 5: results regression gate ---------------------------------------
say "[5/9] scripts/check_regression.py"
if [ -n "$results_json" ]; then
  [ -e "$results_json" ] || die "results file not found: $results_json"
  python3 scripts/check_regression.py "$results_json" || fail=1
else
  sim_bin="$build_dir/examples/cnt_sim"
  [ -x "$sim_bin" ] || die "cnt_sim binary not found: $sim_bin (build the default preset first)"
  tmpdir=$(mktemp -d) || die "mktemp failed"
  trap 'rm -rf "$tmpdir"' EXIT
  cat >"$tmpdir/smoke.ini" <<EOF
[workload]
name = zipf_kv
scale = 0.1
[output]
json = $tmpdir/smoke.json
EOF
  say "smoke run: cnt_sim (zipf_kv, scale 0.1)"
  "$sim_bin" "$tmpdir/smoke.ini" >/dev/null || die "cnt_sim smoke run failed"
  python3 scripts/check_regression.py "$tmpdir/smoke.json" || fail=1
fi

# --- leg 6: golden ledgers -------------------------------------------------
# Representative runs rendered to JSON must match tests/golden/ byte for
# byte, so a hot-path change that alters any result fails here. Host
# speed is gated by perfbench (leg 9 and BENCHMARK.json), not here. An
# empty label is a failure, so a relabelled suite cannot pass vacuously.
say "[6/9] ctest -L golden"
ctest --test-dir "$build_dir" -L golden --no-tests=error --output-on-failure >/dev/null 2>&1 || {
  echo "check_all: ctest -L golden failed" >&2
  fail=1
}

# --- leg 7: crash-consistency wall ------------------------------------------
# Kill-point torture sweep over every registered failpoint site
# (docs/crash_consistency.md): SIGKILL / ENOSPC / short-write at seeded
# byte positions, then verify every artifact is absent, byte-identical,
# or refused -- and that --resume restores sweep journals exactly. Three
# seeds vary the kill index per site; the whole sweep is sub-second.
crash_bin="$build_dir/tools/cnt-crash/cnt-crash"
[ -x "$crash_bin" ] || die "cnt-crash binary not found: $crash_bin (build the default preset first)"
say "[7/9] cnt-crash --seeds 3"
"$crash_bin" --out "$build_dir/crash_wall_sweep" --seeds 3 || fail=1

# --- leg 8: hung-work chaos wall --------------------------------------------
# Seeded chaos schedules over a real sweep (docs/robustness.md): delays,
# transient errors, torn journal writes, watchdog-cancelled hangs and
# SIGINT storms, asserting no deadlock, a loadable-or-refused journal,
# exact quarantine reporting and byte-identical --resume recovery.
chaos_bin="$build_dir/tools/cnt-chaos/cnt-chaos"
[ -x "$chaos_bin" ] || die "cnt-chaos binary not found: $chaos_bin (build the default preset first)"
say "[8/9] cnt-chaos --seeds 3"
"$chaos_bin" --out "$build_dir/chaos_wall_sweep" --seeds 3 || fail=1

# --- leg 9: benchmark self-tests -------------------------------------------
# Tiny runs of every perfbench workload (perfbench/README.md): each must
# reproduce its recorded output digest, a wrong expected digest must be
# reported as incorrect, and an engine override in the environment must be
# refused. A change that alters any simulated output fails here, before
# review. perfbench builds its own binary from src/ into .bench_build/.
say "[9/9] python3 perfbench/selftest.py"
python3 perfbench/selftest.py || fail=1

if [ "$fail" -ne 0 ]; then
  echo "check_all: FAILED" >&2
  exit 1
fi
say "OK (docs, lint, lint-json/audit/DAG, fuzz, regression, golden ledgers, crash wall, chaos wall, perfbench self-tests all green)"
