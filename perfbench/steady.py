#!/usr/bin/env python3
"""Steadiness check: run the benchmark k times on one tree and print, per
workload and end-to-end metric, the median, the quartiles and the
quartile spread (q3 - q1) / median against the metric's bound.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10]
        [--seed 1] [--same-seed] [--first 0] [--seconds S] [--out DIR]

Run i uses seed --seed + --first + i (or --seed every time with
--same-seed, which shows that modeled_ms and the counts repeat
exactly). Full results go to DIR/<workload>/run-<index>.json, the
layout compare.py reads; --first lets a shell loop alternate single
runs of two trees into two directories.
A spread is "steady" below a third of its bound and "NOISY" above the
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(share, bound):
    if share <= bound / 3:
        return "steady"
    return "ok" if share <= bound else "NOISY"


def main(argv=None):
    spec = bench.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path,
                    default=bench.build_dir() / "steady")
    args = ap.parse_args(argv)

    failed_any = False
    for workload in args.workload or names:
        rows = []
        for i in range(args.first, args.first + args.runs):
            seed = args.seed if args.same_seed else args.seed + i
            save = args.out / workload / ("run-%d.json" % i)
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", "%g" % args.seconds,
                 "--trace", "0", "--save", str(save)],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s run %d (seed %d): exit %d" % (
                    workload, i, seed, proc.returncode))
                failed_any = True
                continue
            result = json.loads(lines[-1])
            failed_any |= not result["correct"]
            rows.append(result)
            print("%s run %d seed %d: %s" % (workload, i, seed, " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
        if not rows:
            continue
        print("\n%-16s %-12s %12s %12s %12s %8s %6s  %s" % (
            "workload", "metric", "q1", "median", "q3", "spread", "bound",
            "verdict"))
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in rows]
            q1, med, q3 = quartiles(values)
            share = spread(values)
            print("%-16s %-12s %12.6g %12.6g %12.6g %8.4f %6.3f  %s" % (
                workload, m["name"], q1, med, q3, share, m["bound"],
                verdict(share, m["bound"])))
        print()
    return 1 if failed_any else 0


if __name__ == "__main__":
    sys.exit(main())
