#!/usr/bin/env python3
"""Convert a bench_sim_throughput CSV into a perf snapshot, and check
one snapshot against another.

Snapshot mode:
    perf_snapshot.py sim_throughput.csv BENCH_8.json [--label LABEL]

Check mode (exits 1 on failure):
    perf_snapshot.py sim_throughput.csv current.json \
        --check BENCH_18.json --tolerance 0.10

Self-test mode (exits 1 if the check misjudges a synthetic run):
    perf_snapshot.py --self-test --check BENCH_18.json

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
    regressions: the median current/baseline ratio over the reference
    cases -- the ones that do not run the Canon fabric -- estimates
    the host-speed scale, and a case fails when
    current < (1 - tolerance) * scale * baseline. A slower or busier
    host shifts every case together (scale absorbs it); a change to
    the cycle loop moves the canon-* cases relative to the untouched
    reference benches and trips the floor if they slowed down. The
    canon-* cases are most of the grid, so a median over every case
    would follow them and hide their own regression. Pass --raw-rates
    to gate absolute rates instead (same-host trajectory tracking
    only).
Uniform wall-clock regressions are by construction invisible to the
normalized gate; they remain inspectable in the emitted snapshots.
The self-test scales the baseline's rates into three synthetic runs
and requires the check to fail the first and pass the other two:
every canon-* case x0.7, every canon-* case x1.9, every case x0.8.
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


def is_reference(name):
    """A case that does not run the Canon fabric."""
    return not name.startswith("canon-")


def host_scale(current, baseline):
    """Median current/baseline rate ratio over shared reference cases."""
    ratios = sorted(
        cur["rate"] / base["rate"]
        for name, base in baseline["cases"].items()
        if is_reference(name) and base["rate"] > 0
        for cur in [current["cases"].get(name)]
        if cur is not None)
    if not ratios:
        sys.exit("perf_snapshot: no reference case (one that does not "
                 "run the Canon fabric) in both snapshots; cannot "
                 "estimate the host-speed scale")
    mid = len(ratios) // 2
    if len(ratios) % 2:
        return ratios[mid]
    return 0.5 * (ratios[mid - 1] + ratios[mid])


def check(current, baseline, tolerance, raw_rates):
    scale = 1.0 if raw_rates else host_scale(current, baseline)
    print(f"host-speed scale: {scale:.3f}"
          f"{' (raw rates)' if raw_rates else ' (median reference ratio)'}")
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


def self_test(baseline, tolerance):
    """Run the check on synthetic runs scaled from @p baseline; return
    the number of misjudged runs."""
    def scaled(canon, reference):
        return {"cases": {
            name: dict(case, rate=case["rate"] * (
                reference if is_reference(name) else canon))
            for name, case in baseline["cases"].items()}}

    trials = [("every canon-* case x0.7", scaled(0.7, 1.0), True),
              ("every canon-* case x1.9", scaled(1.9, 1.0), False),
              ("every case x0.8", scaled(0.8, 0.8), False)]
    wrong = 0
    for label, run, should_fail in trials:
        print(f"self-test: {label}")
        failures = check(run, baseline, tolerance, raw_rates=False)
        for msg in failures:
            print(f"  {msg}")
        failed = bool(failures)
        verdict = "fails" if failed else "passes"
        if failed == should_fail:
            print(f"self-test: {label}: {verdict}, as it should")
        else:
            print(f"FAIL: self-test: {label}: {verdict}, but should "
                  f"{'fail' if should_fail else 'pass'}", file=sys.stderr)
            wrong += 1
    return wrong


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("paths", nargs="*", metavar="PATH",
                    help="one or more sim_throughput.csv runs (cases "
                         "take their best rate across runs), then the "
                         "snapshot JSON to write")
    ap.add_argument("--label", default="")
    ap.add_argument("--check", metavar="BASELINE_JSON")
    ap.add_argument("--tolerance", type=float, default=0.10)
    ap.add_argument("--raw-rates", action="store_true",
                    help="gate absolute rates without host-speed "
                         "normalization (same-host runs only)")
    ap.add_argument("--self-test", action="store_true",
                    help="check the gate itself on synthetic runs "
                         "scaled from the --check baseline")
    args = ap.parse_args()

    if args.self_test:
        if not args.check:
            ap.error("--self-test needs --check BASELINE_JSON")
        with open(args.check) as f:
            baseline = json.load(f)
        if self_test(baseline, args.tolerance):
            sys.exit(1)
        print(f"perf gate self-test ok vs {args.check}")
        return
    if len(args.paths) < 2:
        ap.error("need at least one CSV and the snapshot to write")
    csv_paths, out_json = args.paths[:-1], args.paths[-1]

    snapshot = {
        "bench": "bench_sim_throughput",
        "label": args.label,
        "cases": merge_best(csv_paths),
    }
    with open(out_json, "w") as f:
        json.dump(snapshot, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {out_json} ({len(snapshot['cases'])} cases)")

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
