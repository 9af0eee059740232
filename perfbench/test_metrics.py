#!/usr/bin/env python3
"""Self-tests of the benchmark harness (no build needed).

    python3 perfbench/test_metrics.py
"""

import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import metrics as M  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def synthetic_raw(kinds=("bfs", "pr"), per_phase=120, seed=7):
    """A driver output with the shape driver.cpp writes."""
    rng = random.Random(seed)
    ops, spans, stats = [], [], []
    for rep in range(3):
        root = len(spans)
        spans.append(["setup", rep * 1e6, rep * 1e6 + 9e5, -1, 0])
        spans.append(["graph.generate", rep * 1e6, rep * 1e6 + 5e5, root, 0])
        spans.append(["partition.partition", rep * 1e6 + 5e5,
                      rep * 1e6 + 6e5, root, 0])
        spans.append(["problem.init", rep * 1e6 + 6e5, rep * 1e6 + 8e5,
                      root, 0])
    for k in range(len(kinds)):
        for idx in range(4):
            compute = 1.0 + 0.1 * idx + k
            stats.append({"kind": k, "idx": idx, "stats": {
                "supersteps": 5.0 + idx, "edges": 1000.0 * (idx + 1),
                "vertices": 300.0, "comm_bytes": 64.0, "comm_items": 16.0,
                "gateway_dedup_items": 2.0, "compute_ms": compute,
                "comm_ms": 0.25, "overhead_ms": 0.125,
                "overlap_hidden_ms": 0.0625,
                "modeled_ms": compute + 0.25 + 0.125 - 0.0625}})
    op_id, t = 0, 4e6
    for phase in (1, 2):
        for i in range(per_phase):
            for k in range(len(kinds)):
                op_id += 1
                ms = (2.0 + 3 * k) * (1 + 0.2 * rng.random()) * (
                    1.1 if phase == 2 else 1.0)
                ops.append([k, i % 4, ms, True, phase, op_id, True])
                if phase == 2:
                    root = len(spans)
                    spans.append(["op", t, t + ms * 1e3, -1, op_id])
                    spans.append(["problem.reset", t, t + 100, root, op_id])
                    spans.append(["enactor.enact", t + 100, t + ms * 1e3 - 5,
                                  root, op_id])
                t += ms * 1e3 + 10
    # The tracer's rebuild of two pool entries per kind, summed in
    # another order than the reported parts.
    trace_check = []
    for entry in stats:
        if entry["idx"] < 2:
            st = entry["stats"]
            trace_check.append({"kind": entry["kind"], "idx": entry["idx"],
                                "traced": {
                "compute_ms": st["compute_ms"] / 3 * 2 + st["compute_ms"] / 3,
                "comm_ms": 0.25, "overhead_ms": 0.125,
                "overlap_hidden_ms": 0.0625,
                "modeled_ms": (st["compute_ms"] - 0.0625) + 0.125 + 0.25}})
    return {"kinds": list(kinds), "setup_s": [0.9, 0.8, 1.0],
            "setup_timed": [True, True, True],
            "rss_peak_kb": 65536, "modeled_mismatch": 0, "ops": ops,
            "op_stats": stats, "query_ms": [], "traced_ops": per_phase * len(kinds),
            "trace_totals": {"span.advance_filter": 10.0, "span.push": 4.0,
                             "span.barrier": 2.0, "span.pr_update": 1.0,
                             "staged_items": 8.0},
            "trace_check": trace_check, "spans": spans}


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 11))
        random.Random(1).shuffle(values)
        self.assertEqual(M.percentile(values, 0.5), 5)
        self.assertEqual(M.percentile(values, 0.9), 9)
        self.assertEqual(M.percentile(values, 1.0), 10)
        self.assertEqual(M.percentile([3, 1, 2], 0.5), 2)
        self.assertEqual(M.percentile([4.0], 0.9), 4.0)
        with self.assertRaises(ValueError):
            M.percentile([], 0.5)

    def test_at_least_ten_beyond(self):
        self.assertFalse(M.percentile_supported(99, 0.9))
        self.assertTrue(M.percentile_supported(100, 0.9))
        self.assertFalse(M.percentile_supported(19, 0.5))
        self.assertTrue(M.percentile_supported(20, 0.5))
        self.assertFalse(M.percentile_supported(999, 0.99))
        self.assertTrue(M.percentile_supported(1000, 0.99))
        self.assertFalse(M.percentile_supported(0, 0.5))


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            ["op", 0, 100, -1, 1],
            ["reset", 10, 30, 0, 1],
            ["enact", 20, 50, 0, 1],     # overlaps reset: 10..50 covered
            ["late", 90, 120, 0, 1],     # clipped to the parent's end
            ["inner", 15, 20, 1, 1],     # grandchild: only reset's self
            ["other", 0, 10, -1, 2],
        ]
        self.assertEqual(M.self_times(spans), [50, 15, 30, 30, 5, 10])

    def test_union_length(self):
        self.assertEqual(M.union_length([]), 0)
        self.assertEqual(M.union_length([(0, 5), (1, 2), (4, 9), (10, 11)]), 10)


class Names(unittest.TestCase):
    def test_spec_names_units_and_grammar(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(M.valid_name(name), name)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertTrue(M.valid_unit(m["unit"]), m["unit"])
        for bad in ("", "_x", ".x", "a b", "x" * 65, "café", "a/b"):
            self.assertFalse(M.valid_name(bad), bad)

    def test_setup_metric_is_present(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class Reduction(unittest.TestCase):
    def test_every_declared_metric_is_produced(self):
        raw = synthetic_raw()
        e2e, samples, _ = M.end_to_end(raw)
        for m in SPEC["end_to_end"]:
            self.assertGreater(e2e[m["name"]], 0, m["name"])
        self.assertEqual(samples, {"bfs": 120, "pr": 120})
        layer = M.per_layer(raw)
        for m in SPEC["per_layer"]:
            self.assertIn(m["name"], layer)

    def test_vgpu_parts_match_the_tracer(self):
        self.assertTrue(M.trace_sums_match(synthetic_raw()))
        # A perturbed superstep total, or any perturbed part, fails.
        for key in ("modeled_ms", "comm_ms", "overlap_hidden_ms"):
            raw = synthetic_raw()
            raw["trace_check"][1]["traced"][key] += 1e-6
            self.assertFalse(M.trace_sums_match(raw), key)
        # So do a missing check and a vacuous one.
        raw = synthetic_raw()
        raw["trace_check"] = []
        self.assertFalse(M.trace_sums_match(raw))
        raw = synthetic_raw()
        for entry in raw["op_stats"]:
            entry["stats"]["modeled_ms"] = 0.0
        for check in raw["trace_check"]:
            check["traced"]["modeled_ms"] = 0.0
        self.assertFalse(M.trace_sums_match(raw))
        # A serve check carries only the parts ServeStats reports.
        raw = synthetic_raw()
        for check in raw["trace_check"]:
            for key in ("overhead_ms", "overlap_hidden_ms"):
                del check["traced"][key]
        self.assertTrue(M.trace_sums_match(raw))

    def test_untimed_operations_are_left_out(self):
        raw = synthetic_raw()
        base, _, _ = M.end_to_end(raw)
        # Slow operations and set-up reps the driver left untimed (run in
        # contended blocks) change no timing metric.
        for op in raw["ops"][:40]:
            op[M.WALL_MS] *= 3
            op[M.TIMED] = False
        raw["setup_s"] += [5.0, 6.0]
        raw["setup_timed"] += [False, False]
        e2e, samples, _ = M.end_to_end(raw)
        self.assertEqual(samples, {"bfs": 100, "pr": 100})
        self.assertEqual(e2e["setup_s"], base["setup_s"])
        self.assertLess(e2e["ttr_ms_p90"], 1.5 * base["ttr_ms_p90"])
        self.assertEqual(e2e["ok_frac"], 1.0)

    def test_modeled_is_a_per_kind_mean(self):
        raw = synthetic_raw()
        e2e, _, _ = M.end_to_end(raw)
        # bfs pool mean 1.15 + 0.3125, pr pool mean 2.15 + 0.3125
        self.assertAlmostEqual(e2e["modeled_ms"], 1.65 + 0.3125)

    def test_traced_half_and_spans(self):
        layer = M.per_layer(synthetic_raw())
        self.assertGreater(layer["trace.overhead_ms"], 0)
        self.assertAlmostEqual(layer["problem.reset_ms"], 0.1)
        self.assertAlmostEqual(layer["setup.self_s"], 0.1)
        self.assertAlmostEqual(layer["op.self_ms"], 0.005)
        self.assertAlmostEqual(layer["trace.other_ms"], 1.0 / 240)
        self.assertAlmostEqual(layer["comm.gateway_dedup_ratio"], 480 / 8)


class Verdicts(unittest.TestCase):
    def test_rules(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.1, 10.0, 10.2, 9.9]
        faster = [v * 0.8 for v in parent]
        self.assertEqual(compare.judge(parent, faster, "lower", 0.1)[0],
                         "better")
        slower = [v * 1.3 for v in parent]
        self.assertEqual(compare.judge(parent, slower, "lower", 0.1)[0],
                         "worse")
        self.assertEqual(compare.judge(parent, list(parent), "lower", 0.1)[0],
                         "unchanged")
        noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        self.assertEqual(compare.judge(noisy, list(noisy), "lower", 0.1)[0],
                         "unresolved")
        # Every change run below every parent run: not unresolved, even
        # though the parent spread exceeds the bound and the medians
        # differ by less than it.
        below = [4.9 - 0.01 * i for i in range(10)]
        self.assertEqual(compare.judge(noisy, below, "lower", 0.1)[0],
                         "unchanged")
        self.assertEqual(compare.judge([3.0] * 4, [3.0] * 4, "lower", 0.1)[0],
                         "unchanged")
        self.assertEqual(compare.judge([3.0] * 4, [3.5] * 4, "lower", 0.1)[0],
                         "worse")


if __name__ == "__main__":
    unittest.main()
