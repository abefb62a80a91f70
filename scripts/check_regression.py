#!/usr/bin/env python3
"""Regression gate over a cnt_sim/stats_dump JSON file.

Usage:
    build/examples/cnt_sim my.ini           # with [output] json = run.json
    python3 scripts/check_regression.py run.json [--min-saving 0.10]

Checks the invariants a healthy run must satisfy (finite positive
energies, savings within sane bounds, baseline policy present) and,
optionally, a minimum CNT-Cache saving. Host speed is gated by
perfbench/ (docs/performance.md), not here.

Exit codes: 0 = pass, 1 = invariant violated, 2 = prerequisite missing
(file absent/unreadable, malformed JSON, missing schema tag).
"""

import argparse
import json
import math
import sys


def fail(msg):
    print(f"FAIL: {msg}")
    return 1


def check_result(r, min_saving):
    name = r.get("workload", "?")
    policies = {p["name"]: p for p in r.get("policies", [])}
    if "cnfet_base" not in policies:
        return fail(f"{name}: baseline policy missing")
    if "cnt_cache" not in policies:
        return fail(f"{name}: cnt_cache policy missing")

    for pname, p in policies.items():
        total = p.get("total_j")
        if total is None or not math.isfinite(total) or total <= 0:
            return fail(f"{name}/{pname}: bad total energy {total}")
        cat_sum = sum(c["joules"] for c in p.get("categories", {}).values())
        if abs(cat_sum - total) > 1e-9 * max(total, 1e-30):
            return fail(
                f"{name}/{pname}: categories sum {cat_sum} != total {total}")

    saving = r.get("savings", {}).get("cnt_cache")
    if saving is None or not -1.0 < saving < 1.0:
        return fail(f"{name}: implausible saving {saving}")
    if min_saving is not None and saving < min_saving:
        return fail(f"{name}: saving {saving:.3f} below gate {min_saving}")

    cache = r.get("cache", {})
    if not 0.0 <= cache.get("hit_rate", -1) <= 1.0:
        return fail(f"{name}: bad hit rate")
    print(f"ok: {name}  saving={saving:.3f}  "
          f"hit_rate={cache.get('hit_rate'):.3f}")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("json_file")
    ap.add_argument("--min-saving", type=float, default=None,
                    help="fail if any workload's cnt_cache saving is below")
    args = ap.parse_args()

    # Prerequisite problems exit 2 loudly instead of tracebacking (or,
    # worse, passing vacuously on an empty/absent input).
    try:
        with open(args.json_file) as fh:
            doc = json.load(fh)
    except OSError as exc:
        fail(f"cannot read {args.json_file}: {exc}")
        return 2
    except json.JSONDecodeError as exc:
        fail(f"malformed JSON in {args.json_file}: {exc}")
        return 2
    if not isinstance(doc, dict):
        fail(f"{args.json_file}: top-level JSON value is not an object")
        return 2

    # stats_dump stamps multi-result files with a schema tag; a
    # single-result dump is recognised by its top-level "workload" key.
    # Anything else is not a results file at all -- refuse it rather
    # than defaulting the schema to the happy path.
    if "workload" in doc:
        results = [doc]
    elif "schema" not in doc:
        fail(f"{args.json_file}: missing schema tag "
             "(expected cnt-cache-results-v1)")
        return 2
    elif doc["schema"] != "cnt-cache-results-v1":
        return fail(f"unknown schema {doc['schema']}")
    else:
        results = doc.get("results", [])
    if not results:
        return fail("no results found in the JSON document")

    rc = 0
    for r in results:
        rc |= check_result(r, args.min_saving)
    if rc == 0:
        print(f"PASS: {len(results)} result(s) healthy")
    return rc


if __name__ == "__main__":
    sys.exit(main())
