#!/usr/bin/env python3
"""Compile-time regression gate over the Table II stage-time artifact.

Usage: check_table2_regression.py ARTIFACT.json BASELINE.json [--slack 0.25]

ARTIFACT is what `bench/table2_compile_time` writes under
PIMCOMP_BENCH_JSON=...; BASELINE is the checked-in
bench/table2_baseline.json. Both carry a `calibration_seconds` yardstick (a
fixed-budget compile run in the same process), so the gate compares
MACHINE-NORMALIZED totals — total / calibration on each side — making the
25% threshold meaningful even though the baseline was recorded on different
hardware than whatever runner CI landed on. The gate fails (exit 1) when
the normalized total regresses more than --slack, and refuses to compare
(exit 2) when the GA budgets differ — a changed budget needs a regenerated
baseline, not a silently skewed comparison. Per-model ratios are printed
for the humans reading the CI log; only cross-model sums gate, because
single small models are too noisy on shared runners.

Three sums gate independently, each against the same --slack:
  * the TOTAL stage time (the historical gate);
  * the MAPPING stage alone (summed over every row) — the island-model GA
    parallelized exactly this stage, so a mapping-only regression must not
    be able to hide inside a total dominated by scheduling; and
  * the SCHEDULING stage alone, so that an LL scheduling regression cannot
    hide inside a total dominated by mapping.
A stage gate is skipped with a notice when the baseline predates its
`<stage>_seconds` field.
"""

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifact")
    parser.add_argument("baseline")
    parser.add_argument("--slack", type=float, default=0.25,
                        help="allowed fractional regression (default 0.25)")
    args = parser.parse_args()

    with open(args.artifact) as f:
        artifact = json.load(f)
    with open(args.baseline) as f:
        baseline = json.load(f)

    for key in ("population", "generations"):
        got = artifact["config"][key]
        want = baseline["config"][key]
        if got != want:
            print(f"error: artifact GA {key} = {got} but baseline was "
                  f"recorded at {want}; regenerate the baseline "
                  f"(see its _comment) instead of comparing apples to "
                  f"oranges", file=sys.stderr)
            return 2

    rows = {f'{r["model"]}/{r["mode"]}': r["total_s"]
            for r in artifact["stages"]}
    for name, base_s in sorted(baseline.get("per_model_seconds", {}).items()):
        got_s = rows.get(name)
        if got_s is None:
            print(f"error: artifact is missing row '{name}'", file=sys.stderr)
            return 2
        ratio = got_s / base_s if base_s > 0 else float("inf")
        print(f"  {name:24s} {got_s:8.3f}s vs baseline {base_s:8.3f}s "
              f"({ratio:5.2f}x)")

    calibration = artifact.get("calibration_seconds", 0.0)
    base_calibration = baseline.get("calibration_seconds", 0.0)
    if calibration <= 0 or base_calibration <= 0:
        print("error: artifact or baseline lacks a positive "
              "calibration_seconds; regenerate both with the current bench",
              file=sys.stderr)
        return 2

    def gate(label: str, total: float, base_total: float) -> bool:
        normalized = total / calibration
        base_normalized = base_total / base_calibration
        ratio = (normalized / base_normalized if base_normalized > 0
                 else float("inf"))
        print(f"{label}: {total:.3f}s over calibration "
              f"{calibration:.3f}s = {normalized:.2f}; baseline "
              f"{base_total:.3f}s over {base_calibration:.3f}s = "
              f"{base_normalized:.2f} ({ratio:.2f}x normalized)")
        if ratio > 1.0 + args.slack:
            print(f"FAIL: normalized {label} regressed "
                  f"{100 * (ratio - 1):.1f}% "
                  f"(> {100 * args.slack:.0f}% allowed)", file=sys.stderr)
            return False
        print(f"OK: normalized {label} within budget")
        return True

    ok = gate("total stage time", artifact["scenario_seconds"],
              baseline["scenario_seconds"])

    for stage in ("mapping", "scheduling"):
        base_stage = baseline.get(f"{stage}_seconds")
        if base_stage is None:
            print(f"notice: baseline lacks {stage}_seconds; {stage}-only "
                  f"gate skipped (regenerate the baseline to arm it)")
            continue
        stage_total = sum(r[f"{stage}_s"] for r in artifact["stages"])
        ok = gate(f"{stage} stage time", stage_total, base_stage) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
