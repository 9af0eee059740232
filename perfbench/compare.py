#!/usr/bin/env python3
"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds <workload>/run-<i>.json files as steady.py writes
them. Run i of the parent and run i of the change form a pair; run them
alternately (steady.py --runs 1 --first i, switching trees each time)
and with the same seeds. One row per workload x metric gives both
medians and quartiles, the share of pairs the change won, and a
verdict:

  better      the change won at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              own quartile spread;
  worse       the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the parent's own quartile spread is wider than the bound,
              so "no worse by more than the bound" cannot be shown,
              unless every run of the change reads better than every
              run of the parent;
  unchanged   otherwise.

A metric that repeats exactly on both sides (modeled_ms, ok_frac) is
compared as a count: equal is unchanged, anything else is better or
worse, never a speed-up.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402
from steady import quartiles  # noqa: E402


def load(directory):
    """{workload: [full result, ...]} ordered by run index."""
    out = {}
    for wdir in sorted(p for p in Path(directory).iterdir() if p.is_dir()):
        runs = sorted(wdir.glob("run-*.json"),
                      key=lambda p: int(p.stem.split("-")[1]))
        if runs:
            out[wdir.name] = [json.loads(p.read_text()) for p in runs]
    return out


def metric_table(spec):
    """(name, better, bound, getter) for every compared metric: the
    end-to-end metrics, then the per-kind percentiles behind ttr_*."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows = [(m["name"], m["better"], m["bound"],
             lambda r, n=m["name"]: r["end_to_end"].get(n))
            for m in spec["end_to_end"]]
    for kind in ("bfs", "sssp", "pr", "serve"):
        for p in ("p50", "p90"):
            base = bounds["ttr_ms_" + p]
            name = "%s_ms_%s" % (kind, p)
            rows.append((name, "lower", base["bound"],
                         lambda r, n=name: r["detail"].get(n)))
    rows.append(("serve_qps", "higher", bounds["qps"]["bound"],
                 lambda r: r["detail"].get("serve_qps")))
    return rows


def judge(parent, change, better, bound):
    """Verdict and share of pairs won by the change."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    if len(set(parent)) == 1 and len(set(change)) == 1:
        if c_med == p_med:
            return "unchanged", share
        return ("better" if sign * (c_med - p_med) > 0 else "worse"), share
    if share >= 0.9 and sign * (c_med - p_med) > p_q3 - p_q1:
        return "better", share
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "worse", share
    dominates = all(sign * (c - p) > 0 for p in parent for c in change)
    if (p_q3 - p_q1) > bound * abs(p_med) and not dominates:
        return "unresolved", share
    return "unchanged", share


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = bench.load_spec()
    parent, change = load(args.parent), load(args.change)
    print("%-16s %-12s %30s %30s %6s  %s" % (
        "workload", "metric", "parent q1/median/q3", "change q1/median/q3",
        "won", "verdict"))
    worse = 0
    for workload in sorted(set(parent) & set(change)):
        for name, better, bound, get in metric_table(spec):
            p = [get(r) for r in parent[workload]]
            c = [get(r) for r in change[workload]]
            if any(v is None for v in p + c):
                continue
            n = min(len(p), len(c))
            verdict, share = judge(p[:n], c[:n], better, bound)
            worse += verdict == "worse"
            fmt = "%9.4g/%9.4g/%9.4g"
            print("%-16s %-12s %30s %30s %5.0f%%  %s" % (
                workload, name, fmt % quartiles(p[:n]), fmt % quartiles(c[:n]),
                100 * share, verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
