#!/usr/bin/env python3
"""Convert a bench_sim_throughput CSV into a perf snapshot, and check
one snapshot against another.

Snapshot mode:
    perf_snapshot.py sim_throughput.csv BENCH_21.json [--label LABEL]

Check mode (exits 1 on failure):
    perf_snapshot.py sim_throughput.csv current.json \
        --check BENCH_21.json --tolerance 0.10

Self-test mode (exits 1 if the check misjudges a synthetic run):
    perf_snapshot.py --self-test --check BENCH_21.json

Several CSVs may be given (repeated runs of the bench); each case
takes its median calibrated rate across runs, while the deterministic
columns are required to agree across every run. The median, not the
best: a raw rate's noise is one-sided (contention only ever slows a
run down), but the calibrated rate errs both ways -- a kernel run
that the host slowed more than the case lifts it -- so best-of-N
would chase the upward outliers.

The check enforces two different contracts per case:
  * work_per_iter (simulated cycles / completed units per iteration)
    is deterministic and must match the baseline exactly -- a drift
    means simulator semantics changed without a baseline refresh.
  * the calibrated rate, rate x calib_ms, gates relative regressions.
    The bench times a fixed calibration kernel immediately before and
    after every case (calib_ms, their mean), so the product is work
    per kernel run: a slower or busier host slows the kernel next to
    the case too, so the product is far steadier than the rate. A
    case fails when its calibrated rate falls below (1 - tolerance)
    times the baseline's. Each case is judged on its own kernel
    timings, so a host whose speed swings between cases is tracked,
    and a uniform slowdown of every case that the kernel does not
    share still fails. On a shared host the product still spreads
    5-30% between runs (most on the reference cases, which respond
    more strongly than the kernel to the host's phases), so rerun a
    rate failure before reading it as a regression.
The self-test scales the baseline into four synthetic runs and
requires the check to fail the first and last and pass the middle
two: every canon-* case x0.7; every canon-* case x1.9; every case and
the kernel x0.8 (a slower host); every case x0.8 with the kernel
unchanged (a uniform regression).
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
            if "Calib(ms)" not in row:
                sys.exit(f"perf_snapshot: {path} has no Calib(ms) "
                         "column; rebuild bench_sim_throughput")
            cases[name] = {
                "iters": int(row["Iters"].replace(",", "")),
                "work_per_iter": int(row["Work/Iter"].replace(",", "")),
                "rate": float(row["Rate"].replace(",", "")),
                "unit": row["Unit"],
                "calib_ms": float(row["Calib(ms)"]),
            }
    if not cases:
        sys.exit(f"perf_snapshot: no rows parsed from {path}")
    return cases


def calibrated(case):
    """Work per calibration-kernel run: the host-independent rate."""
    return case["rate"] * case["calib_ms"] / 1e3


def merge_median(paths):
    """Each case's run with the median calibrated rate (the lower
    middle one for an even count)."""
    runs = {}
    for path in paths:
        for name, case in parse_csv(path).items():
            prev = runs.setdefault(name, [])
            if prev and case["work_per_iter"] != prev[0]["work_per_iter"]:
                sys.exit(
                    f"perf_snapshot: {name}: work/iter differs "
                    f"across runs ({prev[0]['work_per_iter']} vs "
                    f"{case['work_per_iter']} in {path}); simulated "
                    "cycles must be deterministic")
            prev.append(case)
    return {name: sorted(cases, key=calibrated)[(len(cases) - 1) // 2]
            for name, cases in runs.items()}


def check(current, baseline, tolerance):
    failures = []
    for name, base in baseline["cases"].items():
        cur = current["cases"].get(name)
        if cur is None:
            print(f"note: case '{name}' missing from current run")
            continue
        if "calib_ms" not in base:
            sys.exit(f"perf_snapshot: baseline case '{name}' has no "
                     "calib_ms; check against a calibrated snapshot")
        if cur["work_per_iter"] != base["work_per_iter"]:
            failures.append(
                f"{name}: work/iter drifted "
                f"{base['work_per_iter']} -> {cur['work_per_iter']} "
                "(simulated cycles must be deterministic; refresh the "
                "snapshot only with an intended semantics change)")
        ratio = calibrated(cur) / calibrated(base)
        print(f"{name}: calibrated rate x{ratio:.3f} "
              f"(rate {cur['rate']:,.0f} {cur['unit']}, "
              f"calib {cur['calib_ms']:.3f} ms)")
        if ratio < 1.0 - tolerance:
            failures.append(
                f"{name}: calibrated rate regressed to x{ratio:.3f} of "
                f"the baseline ({calibrated(base):,.1f} -> "
                f"{calibrated(cur):,.1f} per kernel run, floor "
                f"x{1.0 - tolerance:.2f})")
    for name in current["cases"]:
        if name not in baseline["cases"]:
            print(f"note: case '{name}' is new (not in baseline)")
    return failures


def self_test(baseline, tolerance):
    """Run the check on synthetic runs scaled from @p baseline; return
    the number of misjudged runs."""
    def scaled(canon, reference, kernel):
        # A kernel x0.8 as fast takes 1/0.8 as long.
        return {"cases": {
            name: dict(case,
                       rate=case["rate"] * (
                           canon if name.startswith("canon-")
                           else reference),
                       calib_ms=case["calib_ms"] / kernel)
            for name, case in baseline["cases"].items()}}

    trials = [
        ("every canon-* case x0.7", scaled(0.7, 1.0, 1.0), True),
        ("every canon-* case x1.9", scaled(1.9, 1.0, 1.0), False),
        ("every case and the kernel x0.8", scaled(0.8, 0.8, 0.8), False),
        ("every case x0.8, kernel unchanged", scaled(0.8, 0.8, 1.0),
         True),
    ]
    wrong = 0
    for label, run, should_fail in trials:
        print(f"self-test: {label}")
        failures = check(run, baseline, tolerance)
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
                         "take their median calibrated rate across "
                         "runs), then the snapshot JSON to write")
    ap.add_argument("--label", default="")
    ap.add_argument("--check", metavar="BASELINE_JSON")
    ap.add_argument("--tolerance", type=float, default=0.10)
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
        "cases": merge_median(csv_paths),
    }
    with open(out_json, "w") as f:
        json.dump(snapshot, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {out_json} ({len(snapshot['cases'])} cases)")

    if args.check:
        with open(args.check) as f:
            baseline = json.load(f)
        failures = check(snapshot, baseline, args.tolerance)
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        if failures:
            sys.exit(1)
        print(f"perf check ok vs {args.check}")


if __name__ == "__main__":
    main()
