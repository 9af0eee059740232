#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_driver (the library from ../src plus driver.cpp) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload for S measured seconds free of hypervisor steal after a timed
warm-up, checks every answer, prints a table, and ends with one JSON
line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 its per_layer list. The full result (run metadata, per-kind
percentiles, sample counts) is saved as JSON (--save, or
<build>/results/<workload>-seed<N>-trace<T>.json).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import metrics as M  # noqa: E402

DRIVER_TIMEOUT_S = 170


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure once, then build incrementally. Compiler output goes to
    stderr so stdout stays the result."""
    bdir = build_dir()
    if not any((bdir / f).exists() for f in ("Makefile", "build.ninja")):
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return bdir / "perfbench_driver"


def source_digest():
    """Content hash of the measured sources: the checkout the benchmark
    runs in is not a git repository, so this stands in for the commit."""
    h = hashlib.sha256()
    files = [p for d in (ROOT / "src", HERE) for p in sorted(d.rglob("*"))
             if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py")]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", type=Path, help="write the full result here")
    args = ap.parse_args(argv)

    try:
        driver = build()
        raw_path = build_dir() / "raw" / ("%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace))
        raw_path.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run([str(driver), "--workload=" + args.workload,
                        "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
                        "--trace=%d" % args.trace, "--out=" + str(raw_path)],
                       check=True, stdout=sys.stderr, timeout=DRIVER_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    raw = json.loads(raw_path.read_text())

    e2e, samples, detail = M.end_to_end(raw)
    ops = raw["ops"]
    attempted = len(ops)
    failed = sum(1 for op in ops if not op[M.OK])
    problems = []
    if failed:
        problems.append("%d operations failed or answered wrongly" % failed)
    if raw["modeled_mismatch"]:
        problems.append("modeled statistics differed between repeats")
    for name, n in samples.items():
        if not M.percentile_supported(n, 0.9):
            print("perfbench: warning: %d %s samples leave fewer than %d "
                  "beyond p90" % (n, name, M.MIN_BEYOND), file=sys.stderr)

    if args.trace:
        layer = M.per_layer(raw)
        if not M.trace_sums_match(raw):
            problems.append("modeled parts rebuilt from the tracer do not "
                            "match the reported vgpu.* parts and modeled_ms")
        chosen = {m["name"]: (layer[m["name"]], m["unit"])
                  for m in spec["per_layer"]}
    else:
        layer = None
        chosen = {m["name"]: (e2e[m["name"]], m["unit"])
                  for m in spec["end_to_end"]}
        problems += ["%s is not a positive number" % k
                     for k, (v, _) in chosen.items()
                     if not (math.isfinite(v) and v > 0)]

    meta = dict(raw["meta"])
    meta.update(workload=args.workload, seed=args.seed, trace=args.trace,
                seconds=args.seconds, sources=source_digest(),
                samples=samples)
    full = {"meta": meta, "end_to_end": e2e, "detail": detail,
            "per_layer": layer, "attempted": attempted, "failed": failed,
            "problems": problems}
    save = args.save or build_dir() / "results" / raw_path.name
    save.parent.mkdir(parents=True, exist_ok=True)
    save.write_text(json.dumps(full, indent=1, sort_keys=True))

    print("workload %s  seed %d  trace %d  sources %s" % (
        args.workload, args.seed, args.trace, meta["sources"]))
    print("  %s  nproc %d  host_threads %d  vgpus %s  |V| %d  |E| %d  "
          "warm-up %.1fs" % (meta["dataset"], meta["nproc"],
                             meta["host_threads"], meta["vgpu_shape"],
                             meta["vertices"], meta["edges"],
                             meta["warmup_s"]))
    print("  measured %.1fs timed, %.1fs left untimed (steal > %g)" % (
        meta["measured_s"] + meta["traced_s"], meta["contended_s"],
        meta["max_steal"]))
    print("  samples %s" % ", ".join("%s=%d" % kv for kv in samples.items()))
    for key, value in sorted(detail.items()):
        print("  %-28s %s" % (key, value))
    for name, (value, unit) in chosen.items():
        print("  %-28s %14.6g %s" % (name, value, unit))
    for p in problems:
        print("  PROBLEM: " + p)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
