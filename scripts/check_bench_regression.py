#!/usr/bin/env python3
"""Gates CI on benchmark regressions.

Usage:
    python3 scripts/check_bench_regression.py BASELINE.json CANDIDATE.json

Both files are bench reports of the same schema — the kernel
microbenchmark (galaxy-kernel-bench-v1, bench/kernel_microbench) or the
SQL end-to-end latency report (galaxy-sql-bench-v1,
bench/fig08_sql_scalability). The serving
connection-scaling report (galaxy-serving-bench-v2,
scripts/serving_bench.sh) is deliberately not gated: with the legacy
thread-per-connection path retired it carries only absolute qps/latency,
which does not transfer between machines. Only *ratio* metrics
are compared — speedups of
one code path over another measured in the same process — because they are
stable across machines, unlike absolute times or pairs/sec. A candidate
fails when:

  * a ratio metric drops more than TOLERANCE below the baseline value, or
  * an absolute floor is violated: >= 3x single-thread counting throughput
    on independent d=4 data (kernel schema) and >= 2x batch-over-scalar
    speedup on the scan- and GROUP-BY-dominated SQL shapes (sql schema,
    the ISSUE 8 acceptance criterion).

Entries present only in one report are noted but never fatal, so adding or
removing a bench section does not require touching the baseline in the
same commit.
"""

import json
import sys

# Relative drop allowed on each ratio metric before the gate trips.
TOLERANCE = 0.25

# Per-schema gate configuration:
#   ratio_keys — metric keys that are cross-hardware-stable ratios;
#                everything else (seconds, pairs/sec, counts) is
#                informational only.
#   floors     — (entry name, metric, minimum): hard minima independent
#                of the baseline.
SCHEMAS = {
    "galaxy-kernel-bench-v1": {
        # CountBlock over the bench's own per-pair CompareDominance loop.
        "ratio_keys": {"speedup"},
        "floors": [
            ("count_block_d4_indep", "speedup", 3.0),
        ],
    },
    "galaxy-sql-bench-v1": {
        # In-process ratio of the scalar tuple-at-a-time pipeline over the
        # batch columnar pipeline on the same query (bench/
        # fig08_sql_scalability). sql_over_native is deliberately absent:
        # it shrinks whenever the SQL engine improves, which must never
        # trip a regression gate.
        "ratio_keys": {"speedup_vs_scalar"},
        "floors": [
            # ISSUE 8 acceptance: >=2x end-to-end on a scan-dominated and
            # a GROUP-BY-dominated shape, on any hardware.
            ("sql_scan_filter", "speedup_vs_scalar", 2.0),
            ("sql_group_agg", "speedup_vs_scalar", 2.0),
        ],
    },
}


def load(path):
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    schema = report.get("schema")
    if schema not in SCHEMAS:
        sys.exit(f"{path}: unexpected schema {schema!r}")
    return schema, {entry["name"]: entry for entry in report["entries"]}


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} BASELINE.json CANDIDATE.json")
    base_schema, baseline = load(sys.argv[1])
    cand_schema, candidate = load(sys.argv[2])
    if base_schema != cand_schema:
        sys.exit(f"schema mismatch: baseline {base_schema!r} "
                 f"vs candidate {cand_schema!r}")
    config = SCHEMAS[base_schema]
    ratio_keys = config["ratio_keys"]

    failures = []
    checked = 0

    for name, base_entry in sorted(baseline.items()):
        cand_entry = candidate.get(name)
        if cand_entry is None:
            print(f"note: {name}: in baseline only, skipped")
            continue
        for key, base_value in base_entry.items():
            if key not in ratio_keys:
                continue
            cand_value = cand_entry.get(key)
            if cand_value is None:
                print(f"note: {name}.{key}: missing from candidate, skipped")
                continue
            checked += 1
            limit = base_value * (1.0 - TOLERANCE)
            status = "ok" if cand_value >= limit else "FAIL"
            print(f"{status}: {name}.{key}: baseline {base_value:.3f} "
                  f"candidate {cand_value:.3f} (limit {limit:.3f})")
            if cand_value < limit:
                failures.append(
                    f"{name}.{key} dropped {base_value:.3f} -> "
                    f"{cand_value:.3f} (> {TOLERANCE:.0%} regression)")

    for name in sorted(set(candidate) - set(baseline)):
        print(f"note: {name}: in candidate only, skipped")

    for name, key, minimum in config["floors"]:
        entry = candidate.get(name)
        value = entry.get(key) if entry else None
        if value is None:
            failures.append(f"floor check impossible: {name}.{key} missing")
            continue
        checked += 1
        status = "ok" if value >= minimum else "FAIL"
        print(f"{status}: floor {name}.{key}: {value:.3f} >= {minimum}")
        if value < minimum:
            failures.append(
                f"{name}.{key} = {value:.3f} below hard floor {minimum}")

    if checked == 0:
        failures.append("no comparable ratio metrics found — wrong files?")

    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nall {checked} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
