"""Reduce the driver's raw samples into the benchmark's metrics.

The driver (driver.cpp) writes what it observed: per-operation wall
times and answers, the modeled statistics of every pooled operation,
set-up times, wall-clock spans and the tracer's per-span totals. This
module turns that into named metrics; run.py prints them, steady.py
and compare.py read them back.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

# Modeled span names reported together as trace.<name>_ms; every other
# span lands in trace.other_ms, so the trace.* times cover all modeled
# busy time.
TRACE_SPANS = {
    "advance": ["advance", "advance_filter", "advance_dense", "advance_pull"],
    "filter": ["filter", "filter_compact"],
    "package": ["split_package", "pr_package"],
    "wire_encode": ["wire_encode_bitmap", "wire_encode_varint"],
    "wire_decode": ["wire_decode_bitmap", "wire_decode_varint"],
    "push": ["push"],
    "push_relay": ["push_relay"],
    "push_inter_node": ["push_inter_node"],
    "gateway_decode": ["gateway_decode"],
    "gateway_merge": ["gateway_merge"],
    "combine": ["combine"],
    "barrier": ["barrier"],
}

# Per-operation counters of the comm layer, reported as pool means
# under comm.<name>.
COMM_COUNTERS = {
    "bytes": "comm_bytes", "items": "comm_items",
    "combine_items": "combine_items",
    "intra_node_bytes": "intra_node_bytes",
    "inter_node_bytes": "inter_node_bytes",
    "wire_bytes_raw": "wire_bytes_raw",
    "wire_bytes_bitmap": "wire_bytes_bitmap",
    "wire_bytes_delta": "wire_bytes_delta",
    "wire_encode_vertices": "wire_encode_vertices",
    "wire_decode_vertices": "wire_decode_vertices",
    "gateway_merges": "gateway_merges",
}
VGPU_PARTS = ["compute_ms", "comm_ms", "overhead_ms", "overlap_hidden_ms"]

# Columns of the driver's per-operation rows.
KIND, IDX, WALL_MS, OK, PHASE, OP_ID, TIMED = range(7)
MEASURED, TRACED = 1, 2


def valid_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least
    ceil(p * n) of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) - 1e-9))
    return ordered[rank - 1]


def percentile_supported(n, p):
    """Whether n samples leave at least MIN_BEYOND beyond percentile p."""
    return n > 0 and n - max(1, math.ceil(p * n - 1e-9)) >= MIN_BEYOND


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of it that
    its child spans cover. `spans` rows are [name, start, end, parent,
    op] with `parent` an index into `spans` or -1."""
    children = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append(span)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        clipped = [(max(c[1], start), min(c[2], end))
                   for c in children.get(i, [])]
        out.append(end - start - union_length(
            [(a, b) for a, b in clipped if b > a]))
    return out


def trace_sums_match(raw, rel=1e-9):
    """Whether the modeled parts the library reported for each checked
    operation (its op_stats: compute_ms, comm_ms, overhead_ms,
    overlap_hidden_ms, modeled_ms) equal the same parts rebuilt from the
    tracer's superstep records (the driver's trace_check). The two are
    summed independently, in different orders, hence the tolerance.
    Vacuous checks fail: at least one operation with a positive
    modeled_ms is required."""
    stats = {(e["kind"], e["idx"]): e["stats"] for e in raw["op_stats"]}
    checks = raw.get("trace_check") or []
    if not checks:
        return False
    for check in checks:
        reported = stats[(check["kind"], check["idx"])]
        traced = check["traced"]
        if not traced.get("modeled_ms", 0) > 0:
            return False
        for key, value in traced.items():
            if not math.isclose(value, reported[key], rel_tol=rel,
                                abs_tol=1e-12):
                return False
    return True


# ---------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------

def pool_means(raw):
    """Per kind index, the mean of every modeled statistic over the
    kind's pool. Each pooled operation counts once, so these repeat
    exactly for a given seed."""
    by_kind = {}
    for entry in raw["op_stats"]:
        by_kind.setdefault(entry["kind"], []).append(entry["stats"])
    return {kind: {k: sum(r[k] for r in rows) / len(rows) for k in rows[0]}
            for kind, rows in by_kind.items()}


def kind_mean(means, key):
    """Operations run round-robin over kinds, so each kind weighs the
    same in a per-operation mean."""
    values = [m.get(key, 0.0) for m in means.values()]
    return sum(values) / len(values)


def end_to_end(raw, phase=MEASURED):
    """End-to-end metrics over the operations of `phase`, plus per-kind
    detail and the sample count behind each percentile. Timings come
    from the operations the driver timed: those it ran in the blocks
    with the least hypervisor steal."""
    means = pool_means(raw)
    kinds = raw["kinds"]
    wall = {k: [] for k in range(len(kinds))}
    for op in raw["ops"]:
        if op[PHASE] == phase and op[TIMED]:
            wall[op[KIND]].append(op[WALL_MS])
    metrics, samples, detail = {}, {}, {}
    p50s, p90s = [], []
    answered, busy_s = 0.0, 0.0
    for k, name in enumerate(kinds):
        ms = wall[k]
        if not ms:
            raise ValueError("no %s operations measured" % name)
        samples[name] = len(ms)
        detail[name + "_ms_p50"] = percentile(ms, 0.5)
        detail[name + "_ms_p90"] = percentile(ms, 0.9)
        detail[name + "_p90_supported"] = percentile_supported(len(ms), 0.9)
        p50s.append(detail[name + "_ms_p50"])
        p90s.append(detail[name + "_ms_p90"])
        answered += len(ms) * means[k].get("queries", 1.0)
        busy_s += sum(ms) / 1e3
    ops = raw["ops"]
    metrics["setup_s"] = statistics.median(
        s for s, timed in zip(raw["setup_s"], raw["setup_timed"]) if timed)
    metrics["rss_peak_mb"] = raw["rss_peak_kb"] / 1024.0
    metrics["ok_frac"] = sum(1 for op in ops if op[OK]) / len(ops)
    metrics["modeled_ms"] = kind_mean(means, "modeled_ms")
    metrics["ttr_ms_p50"] = geomean(p50s)
    metrics["ttr_ms_p90"] = geomean(p90s)
    metrics["qps"] = answered / busy_s
    if "serve" in kinds:
        detail["serve_qps"] = metrics["qps"]
    return metrics, samples, detail


def per_layer(raw):
    """Per-layer metrics of a traced run (driver --trace=1)."""
    means = pool_means(raw)
    kinds = raw["kinds"]
    spans = raw["spans"]
    own = self_times(spans)
    totals = raw["trace_totals"]
    n_traced = max(1, raw["traced_ops"])
    m = {}

    def med(values):
        return statistics.median(values) if values else 0.0

    def durations(names, scale):
        return [(s[2] - s[1]) * scale for s in spans if s[0] in names]

    # graph, partition, core problem
    m["graph.generate_s"] = med(durations(("graph.generate",), 1e-6))
    m["partition.partition_s"] = med(durations(("partition.partition",), 1e-6))
    if "serve" in kinds:
        # Lanes' Problem/Enactor construction: the service constructor
        # minus the partition it runs.
        construct = med(durations(("serve.construct",), 1e-6))
        m["problem.init_s"] = max(0.0, construct - m["partition.partition_s"])
    else:
        m["problem.init_s"] = med(durations(("problem.init",), 1e-6))
    m["problem.reset_ms"] = med(durations(("problem.reset",), 1e-3))
    m["setup.self_s"] = med([own[i] * 1e-6 for i, s in enumerate(spans)
                             if s[0] == "setup"])
    m["op.self_ms"] = med([own[i] * 1e-3 for i, s in enumerate(spans)
                           if s[0] == "op"])

    # core enactor: each traced op's enact span joined with its
    # modeled statistics.
    stats = {(e["kind"], e["idx"]): e["stats"] for e in raw["op_stats"]}
    op_of = {op[OP_ID]: op for op in raw["ops"] if op[PHASE] == TRACED}
    traced = [op_of[op_id] for op_id in op_of]
    per_step, mteps, enacts = [], [], []
    for s in spans:
        if s[0] not in ("enactor.enact", "serve.run") or s[4] not in op_of:
            continue
        op = op_of[s[4]]
        st = stats[(op[KIND], op[IDX])]
        us = s[2] - s[1]
        enacts.append(us * 1e-3)
        if st.get("supersteps"):
            per_step.append(us / st["supersteps"])
        if st.get("edges"):
            mteps.append(st["edges"] / us)
    m["enactor.enact_ms_p50"] = med(enacts)
    m["enactor.supersteps"] = kind_mean(means, "supersteps")
    m["enactor.us_per_superstep"] = med(per_step)
    m["enactor.wait_ms"] = totals.get("wait_wall_ms", 0.0) / n_traced

    # core operators (W) and the host pool behind them
    m["operators.edges"] = kind_mean(means, "edges")
    m["operators.vertices"] = kind_mean(means, "vertices")
    m["operators.wall_mteps"] = med(mteps)

    # core comm (H, C, wire formats, gateway relay)
    for metric, key in COMM_COUNTERS.items():
        m["comm." + metric] = kind_mean(means, key)
    dedup = sum(stats[(op[KIND], op[IDX])].get("gateway_dedup_items", 0.0)
                for op in traced)
    staged = totals.get("staged_items", 0.0)
    m["comm.gateway_dedup_ratio"] = dedup / staged if staged else 0.0

    # vgpu cost model: the parts of modeled_ms
    m["modeled_ms"] = kind_mean(means, "modeled_ms")
    for part in VGPU_PARTS:
        m["vgpu." + part] = kind_mean(means, part)

    # serve + multi-source
    batches = kind_mean(means, "batches")
    m["serve.batches"] = batches
    m["serve.sources_per_batch"] = (
        kind_mean(means, "distinct_sources") / batches if batches else 0.0)
    m["serve.queries_per_batch"] = (
        kind_mean(means, "queries") / batches if batches else 0.0)
    m["serve.query_ms_p50"] = med(raw["query_ms"])
    for key in ("requeues", "shed", "failed"):
        m["serve." + key] = kind_mean(means, key)

    # vgpu tracer: modeled busy time per span name, per traced op
    listed = {"span." + n for names in TRACE_SPANS.values() for n in names}
    for metric, names in TRACE_SPANS.items():
        m["trace.%s_ms" % metric] = sum(
            totals.get("span." + n, 0.0) for n in names) / n_traced
    m["trace.other_ms"] = sum(v for k, v in totals.items()
                              if k.startswith("span.") and k not in listed
                              ) / n_traced
    m["trace.dropped_spans"] = totals.get("dropped_spans", 0.0)

    # tracing overhead: the traced half against the untraced half
    untraced, _, detail = end_to_end(raw, MEASURED)
    with_trace, _, _ = end_to_end(raw, TRACED)
    m["trace.overhead_ms"] = with_trace["ttr_ms_p50"] - untraced["ttr_ms_p50"]
    for key in ("bfs_ms_p50", "sssp_ms_p50", "pr_ms_p50", "serve_ms_p50",
                "serve_qps"):
        m[key] = detail.get(key, 0.0)
    m["error_rate"] = 1.0 - untraced["ok_frac"]
    return m
