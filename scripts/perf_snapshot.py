#!/usr/bin/env python3
"""Convert a bench_sim_throughput CSV into a perf snapshot, and check
one snapshot against another.

Snapshot mode:
    perf_snapshot.py sim_throughput.csv BENCH_8.json [--label LABEL]

Check mode (exits 1 on failure):
    perf_snapshot.py sim_throughput.csv current.json \
        --check BENCH_8.json --tolerance 0.10

Several CSVs may be given (repeated runs of the bench); each case
takes its best rate across runs. Wall-clock noise on a busy host is
one-sided -- contention only ever slows a run down -- so best-of-N
recovers the honest rate while the deterministic columns are
required to agree across every run.

The check enforces two different contracts per case:
  * work_per_iter (simulated cycles / completed units per iteration)
    is deterministic and must match the baseline exactly -- a drift
    means simulator semantics changed without a baseline refresh.
  * rate is a wall-clock measurement and only gates *relative*
    regressions: the median current/baseline ratio across all shared
    cases estimates the host-speed scale, and a case fails when
    current < (1 - tolerance) * scale * baseline. A slower or busier
    host shifts every case together (scale absorbs it); a code
    regression hits specific cases relative to the untouched
    baseline benches and trips the floor. Pass --raw-rates to gate
    absolute rates instead (same-host trajectory tracking only).
Uniform wall-clock regressions are by construction invisible to the
normalized gate; they remain inspectable in the emitted snapshots.
Cases present on one side only are reported but do not fail the
check (the grid is allowed to grow).
"""

import argparse
import csv
import json
import sys


def parse_csv(path):
    cases = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            name = row["Benchmark"]
            cases[name] = {
                "iters": int(row["Iters"].replace(",", "")),
                "work_per_iter": int(row["Work/Iter"].replace(",", "")),
                "rate": float(row["Rate"].replace(",", "")),
                "unit": row["Unit"],
            }
    if not cases:
        sys.exit(f"perf_snapshot: no rows parsed from {path}")
    return cases


def merge_best(paths):
    merged = parse_csv(paths[0])
    for path in paths[1:]:
        for name, case in parse_csv(path).items():
            prev = merged.get(name)
            if prev is None:
                merged[name] = case
            elif case["work_per_iter"] != prev["work_per_iter"]:
                sys.exit(
                    f"perf_snapshot: {name}: work/iter differs "
                    f"across runs ({prev['work_per_iter']} vs "
                    f"{case['work_per_iter']} in {path}); simulated "
                    "cycles must be deterministic")
            elif case["rate"] > prev["rate"]:
                merged[name] = case
    return merged


def host_scale(current, baseline):
    """Median current/baseline rate ratio over shared cases."""
    ratios = sorted(
        cur["rate"] / base["rate"]
        for name, base in baseline["cases"].items()
        if base["rate"] > 0
        for cur in [current["cases"].get(name)]
        if cur is not None)
    if not ratios:
        return 1.0
    mid = len(ratios) // 2
    if len(ratios) % 2:
        return ratios[mid]
    return 0.5 * (ratios[mid - 1] + ratios[mid])


def check(current, baseline, tolerance, raw_rates):
    scale = 1.0 if raw_rates else host_scale(current, baseline)
    print(f"host-speed scale: {scale:.3f}"
          f"{' (raw rates)' if raw_rates else ' (median ratio)'}")
    failures = []
    for name, base in baseline["cases"].items():
        cur = current["cases"].get(name)
        if cur is None:
            print(f"note: case '{name}' missing from current run")
            continue
        if cur["work_per_iter"] != base["work_per_iter"]:
            failures.append(
                f"{name}: work/iter drifted "
                f"{base['work_per_iter']} -> {cur['work_per_iter']} "
                "(simulated cycles must be deterministic; refresh the "
                "snapshot only with an intended semantics change)")
        floor = (1.0 - tolerance) * scale * base["rate"]
        if cur["rate"] < floor:
            failures.append(
                f"{name}: rate regressed {base['rate']:,.0f} -> "
                f"{cur['rate']:,.0f} {cur['unit']} "
                f"(floor {floor:,.0f} at {tolerance:.0%} tolerance, "
                f"scale {scale:.3f})")
    for name in current["cases"]:
        if name not in baseline["cases"]:
            print(f"note: case '{name}' is new (not in baseline)")
    return failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("csv_paths", nargs="+",
                    metavar="sim_throughput.csv",
                    help="one or more runs; cases take their best "
                         "rate across runs")
    ap.add_argument("out_json")
    ap.add_argument("--label", default="")
    ap.add_argument("--check", metavar="BASELINE_JSON")
    ap.add_argument("--tolerance", type=float, default=0.10)
    ap.add_argument("--raw-rates", action="store_true",
                    help="gate absolute rates without host-speed "
                         "normalization (same-host runs only)")
    args = ap.parse_args()

    snapshot = {
        "bench": "bench_sim_throughput",
        "label": args.label,
        "cases": merge_best(args.csv_paths),
    }
    with open(args.out_json, "w") as f:
        json.dump(snapshot, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out_json} ({len(snapshot['cases'])} cases)")

    if args.check:
        with open(args.check) as f:
            baseline = json.load(f)
        failures = check(snapshot, baseline, args.tolerance,
                         args.raw_rates)
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        if failures:
            sys.exit(1)
        print(f"perf check ok vs {args.check}")


if __name__ == "__main__":
    main()
