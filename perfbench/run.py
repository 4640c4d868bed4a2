#!/usr/bin/env python3
"""Benchmark of the Canon simulator, run from the root of a checkout:

    python3 perfbench/run.py --workload fig14-cold --seed 1 --seconds 20 \\
        --trace 0

Builds canonsim, canond and canonctl from source (Release, into
$CARGO_TARGET_DIR or .bench_build) with the benchmark's host-speed
calibration kernel, runs one workload for about
--seconds, checks every output, and prints one JSON line: the
end-to-end metrics with --trace 0, the per-layer split with --trace 1.
Exits 2 without a result when the program cannot be built or run.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

from harness import BenchError, build  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        programs = build(root)
        res = WORKLOADS[args.workload](programs, args.seed, args.seconds,
                                       bool(args.trace))
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    if not res["correct"]:
        print("perfbench: %d of %d operations failed"
              % (res["failed"], res["attempted"]), file=sys.stderr)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
