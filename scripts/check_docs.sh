#!/usr/bin/env bash
# Documentation drift guard (ctest label: docs).
#
# Scans docs/*.md, README.md and EXPERIMENTS.md and fails if they refer
# to things that do not exist in the tree:
#   1. repo-relative file paths (src/..., docs/..., tests/..., bench/...,
#      perfbench/..., examples/..., scripts/...), with {a,b} brace groups
#      expanded;
#   2. bench_* / test_* binary names, which must map to a source file
#      under bench/ or tests/, and the figure names after `bench_figures`,
#      which must be registered in bench/figures.cpp;
#   3. --flags, which must appear in a source/script file (a small
#      allowlist covers flags that belong to external tools like cmake);
#   4. the results/ provenance rule: every results/<name>.csv, in the tree
#      or named in a doc, must be regenerated by a figure registered in
#      bench/figures.cpp.
#
# Run from the repository root: scripts/check_docs.sh
set -u

cd "$(dirname "$0")/.." || exit 1

docs=(docs/*.md README.md EXPERIMENTS.md)
registry=bench/figures.cpp
fail=0

complain() {
  echo "check_docs: $1" >&2
  fail=1
}

# --- 0. prerequisites ------------------------------------------------------

# A missing doc set must be a hard failure, not a silent pass: an
# unexpanded docs/*.md glob or a deleted README would otherwise make
# every check below vacuous.
for doc in "${docs[@]}" "$registry"; do
  [ -e "$doc" ] || complain "prerequisite doc file missing: $doc"
done
if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED (prerequisites)" >&2
  exit 2
fi

# --- 1. file paths ---------------------------------------------------------

# Tokens that look like repo paths. Trailing punctuation (),.:;`'" is
# stripped; tokens with glob/placeholder characters are skipped.
paths=$(grep -ohE '(src|docs|tests|bench|perfbench|examples|scripts|tools|results)/[A-Za-z0-9_.{},/-]+' \
          "${docs[@]}" | sed -E 's/[).,:;`'"'"'"]+$//' | sort -u)

while IFS= read -r raw; do
  [ -z "$raw" ] && continue
  case "$raw" in
    *'*'*|*'<'*|*'N'=*) continue ;;
    *_|*-) continue ;;  # truncated placeholder, e.g. bench/bench_<name>.cpp
  esac
  # Expand one {a,b,...} brace group (e.g. src/exec/journal.{hpp,cpp}).
  if [[ "$raw" == *'{'*'}'* ]]; then
    prefix=${raw%%\{*}
    rest=${raw#*\{}
    alts=${rest%%\}*}
    suffix=${rest#*\}}
    IFS=',' read -ra parts <<<"$alts"
    expanded=()
    for p in "${parts[@]}"; do expanded+=("${prefix}${p}${suffix}"); done
  elif [[ "$raw" == *'{'* || "$raw" == *'}'* ]]; then
    continue  # half a brace group: not a real path token
  else
    expanded=("$raw")
  fi
  for path in "${expanded[@]}"; do
    path=${path%/}
    # results/* files are generated artifacts; rule 4 checks their
    # provenance instead of their presence.
    case "$path" in results/*) continue ;; esac
    # A doc may name a built binary (bench/bench_x, examples/quickstart,
    # tools/cnt-lint/cnt-lint) or an extensionless module
    # (src/energy/tech_params): accept when the matching source exists.
    if [ ! -e "$path" ] && [ ! -e "$path.cpp" ] && [ ! -e "$path.hpp" ] &&
       [ ! -e "$(dirname "$path")/main.cpp" ]; then
      complain "referenced path does not exist: $path"
    fi
  done
done <<<"$paths"

# --- 2. bench_* / test_* names --------------------------------------------

names=$(grep -ohE '\b(bench|test)_[a-z0-9_]+(\.cpp|\.hpp)?\b' "${docs[@]}" | sort -u)
while IFS= read -r name; do
  [ -z "$name" ] && continue
  base=${name%.cpp}; base=${base%.hpp}
  case "$base" in
    bench_*) dir=bench ;;
    test_*)  dir=tests ;;
  esac
  # Tests may live in a labelled subdirectory (e.g. tests/lint/).
  if [ -z "$(find "$dir" -name "$base.cpp" -o -name "$base.hpp" 2>/dev/null)" ]; then
    complain "referenced binary has no source: $name (expected $dir/$base.cpp)"
  fi
done <<<"$names"

# A figure is named by the `.name = "<name>"` literal of its registry
# entry; `bench_figures NAME...` in a doc must name registered figures.
registered() {
  grep -qF ".name = \"$1\"" "$registry"
}
figures=$(grep -ohE 'bench_figures( [a-z][a-z0-9_]*)+' "${docs[@]}" |
            tr ' ' '\n' | grep -v '^bench_figures$' | sort -u)
while IFS= read -r fig; do
  [ -z "$fig" ] && continue
  registered "$fig" ||
    complain "bench_figures $fig: no such figure in $registry"
done <<<"$figures"

# --- 3. --flags ------------------------------------------------------------

# Flags owned by external tools that the docs legitimately mention.
external_flags="--output-on-failure --preset --build --target --parallel --version --test-dir"

flags=$(grep -ohE -- '--[a-z][a-z0-9-]+' "${docs[@]}" | sort -u)
while IFS= read -r flag; do
  [ -z "$flag" ] && continue
  case " $external_flags " in *" $flag "*) continue ;; esac
  # A flag counts as implemented when it appears quoted in source --
  # either exactly ("--list-rules") or as a value-taking prefix
  # ("--format=").
  if ! grep -rqE -- "\"$flag(=|\")" src bench perfbench examples tools && \
     ! grep -rqF -- "$flag" scripts/*.py scripts/*.sh; then
    complain "referenced flag not implemented anywhere: $flag"
  fi
done <<<"$flags"

# --- 4. results/ provenance -----------------------------------------------

csvs=$( { ls results/*.csv 2>/dev/null;
          grep -ohE 'results/[A-Za-z0-9_]+\.csv' "${docs[@]}"; } | sort -u)
while IFS= read -r csv; do
  [ -z "$csv" ] && continue
  name=$(basename "$csv" .csv)
  registered "$name" ||
    complain "$csv has no generating figure in $registry"
done <<<"$csvs"

# --- 5. ctest labels -------------------------------------------------------

# A doc that says `ctest -L <label>` (or "ctest label: <label>") promises
# that label exists; it must appear as a LABELS property in a CMakeLists.
labels=$( { grep -ohE -- '-L [a-z][a-z0-9_-]*' "${docs[@]}" | sed 's/^-L //';
            grep -ohE 'ctest label: `?[a-z][a-z0-9_-]*' "${docs[@]}" |
              sed -E 's/^ctest label: `?//'; } | sort -u)
while IFS= read -r label; do
  [ -z "$label" ] && continue
  if ! grep -rq "LABELS.*\b$label\b" --include=CMakeLists.txt .; then
    complain "referenced ctest label not defined in any CMakeLists: $label"
  fi
done <<<"$labels"

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: OK (${#docs[@]} doc files, all references resolve)"
