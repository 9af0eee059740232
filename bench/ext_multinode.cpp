// Extension (§VIII future work): scale-up vs scale-out, and the
// two-level combine gate.
//
// The paper's concluding question: "can we achieve further scalability
// with multiple nodes, and given the increased latency and decreased
// bandwidth of those nodes, is it profitable to do so?" — and its
// §VII-C position that results "motivate a future focus on scaling up
// (fewer but more powerful nodes, each with more GPUs) in preference
// to scaling out."
//
// The node hierarchy is first-class in the core (vgpu::Interconnect
// node metadata + Config::two_level_combine; docs/architecture.md
// §14), so this bench both reproduces the scale-up-vs-scale-out table
// (BFS / DOBFS / PR on 8 GPUs as 1x8, 2x4, 4x2 with an
// InfiniBand-class inter-node link, plus the 4-GPU reference) and exit
// gates the two-level combine:
//
//  * per (topology, primitive), results and every item-shaped counter
//    are bit-identical across {flat, two-level} x {BSP, pipeline} x
//    {raw, auto} — staging through the gateways must not change one
//    answer or one communicated/combined item;
//  * intra_node_bytes + inter_node_bytes == total_comm_bytes and the
//    per-format wire byte split sums to total_comm_bytes, in every
//    cell;
//  * two-level reduces modeled inter-node bytes vs the flat path —
//    strictly in every kAuto cell (the gateway re-encode always wins)
//    and in every BFS/PR cell including raw (their selective pushes
//    overlap across a node's senders, so the dedup alone shrinks the
//    merged payload); DOBFS broadcast chunks are owner-disjoint, so
//    its raw cells may only tie (never grow). Non-vacuity per
//    topology: the flat baselines ship inter-node bytes, the gateways
//    dedup (gateway_dedup_items > 0), and the two-level kAuto cells
//    exercise BOTH compressed codecs.
//
// Flags: --csv=PATH, --seed=N.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "primitives/bfs.hpp"
#include "primitives/dobfs.hpp"
#include "primitives/pagerank.hpp"

namespace {

using namespace mgg;

// Dense frontiers give the gate cells the ascending sequences the
// bitmap codec needs.
constexpr double kDenseThreshold = 0.05;

struct Shape {
  const char* name;
  int gpus_per_node;
  int nodes;
};

struct Cell {
  std::vector<VertexT> labels;  // bfs / dobfs
  std::vector<VertexT> preds;
  std::vector<ValueT> rank;  // pr
  vgpu::RunStats stats;
};

/// One primitive run on `machine` (by reference — a Machine deep-copy
/// per cell would clone every device, stream, and the interconnect).
/// The workload scale is reset explicitly per run: it is per-machine
/// state and a previous caller may have left a different value.
Cell run_on(vgpu::Machine& machine, const std::string& primitive,
            const graph::Graph& g, double scale, core::Config cfg) {
  machine.set_workload_scale(scale);
  Cell cell;
  if (primitive == "bfs") {
    auto r = prim::run_bfs(g, bench::pick_source(g), machine, cfg);
    cell.labels = std::move(r.labels);
    cell.preds = std::move(r.preds);
    cell.stats = r.stats;
  } else if (primitive == "dobfs") {
    auto r = prim::run_dobfs(g, bench::pick_source(g), machine, cfg);
    cell.labels = std::move(r.labels);
    cell.preds = std::move(r.preds);
    cell.stats = r.stats;
  } else {
    prim::PagerankOptions options;
    options.max_iterations = 20;
    auto r = prim::run_pagerank(g, machine, cfg, options);
    cell.rank = std::move(r.rank);
    cell.stats = r.stats;
  }
  return cell;
}

core::Config cell_config(const std::string& primitive, int num_gpus,
                         std::uint64_t seed, core::SyncMode mode,
                         core::WireFormat wf, bool two_level) {
  auto cfg = bench::config_for_primitive(primitive, num_gpus, seed);
  cfg.sync_mode = mode;
  cfg.wire_format = wf;
  cfg.two_level_combine = two_level;
  cfg.dense_threshold = kDenseThreshold;  // only dense-capable prims honor it
  return cfg;
}

bool check(bool ok, const char* what, const std::string& label) {
  if (!ok) std::fprintf(stderr, "FAIL [%s]: %s\n", label.c_str(), what);
  return ok;
}

bool same_items(const Cell& a, const Cell& b) {
  return a.stats.iterations == b.stats.iterations &&
         a.stats.total_edges == b.stats.total_edges &&
         a.stats.total_comm_items == b.stats.total_comm_items &&
         a.stats.total_combine_items == b.stats.total_combine_items;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_common(argc, argv);
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);

  const auto ds = graph::build_dataset("rmat_n22_128", seed);
  const double scale = bench::dataset_scale(ds);
  const graph::Graph& g = ds.graph;

  bool ok = true;
  bool gate_earned = false;

  // --- Part 1: the two-level combine gate on the cluster shapes. ---
  util::Table gate_table(
      "two-level combine: modeled inter-node bytes, flat vs staged "
      "(rmat_n22_128)");
  gate_table.set_columns({"topology", "primitive", "mode", "format",
                          "flat inter B", "2-level inter B", "saved %",
                          "dedup items"},
                         1);

  const Shape shapes[] = {{"2x4", 4, 2}, {"4x2", 2, 4}};
  for (const Shape& shape : shapes) {
    // Per-topology non-vacuity aggregates across the cell matrix.
    std::uint64_t shape_flat_inter = 0, shape_two_inter = 0;
    std::uint64_t shape_dedup = 0, shape_bitmap = 0, shape_delta = 0;
    for (const std::string primitive : {"bfs", "dobfs", "pr"}) {
      const int n = shape.gpus_per_node * shape.nodes;
      const Cell* baseline = nullptr;
      std::vector<Cell> cells;
      cells.reserve(8);
      for (const core::SyncMode mode :
           {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
        for (const core::WireFormat wf :
             {core::WireFormat::kRawIds, core::WireFormat::kAuto}) {
          Cell flat, two;
          {
            auto machine = vgpu::Machine::create_cluster(
                "k40", shape.gpus_per_node, shape.nodes);
            flat = run_on(machine, primitive, g, scale,
                          cell_config(primitive, n, seed, mode, wf, false));
          }
          {
            auto machine = vgpu::Machine::create_cluster(
                "k40", shape.gpus_per_node, shape.nodes);
            two = run_on(machine, primitive, g, scale,
                         cell_config(primitive, n, seed, mode, wf, true));
          }
          const std::string label = std::string(shape.name) + "/" +
                                    primitive + "/" + to_string(mode) +
                                    "/" + to_string(wf);
          // Per-cell accounting invariants, both paths.
          for (const Cell* c : {&flat, &two}) {
            const auto& s = c->stats;
            ok &= check(s.intra_node_bytes + s.inter_node_bytes ==
                            s.total_comm_bytes,
                        "link-class split does not sum to total bytes",
                        label);
            ok &= check(s.wire_bytes_raw + s.wire_bytes_bitmap +
                                s.wire_bytes_delta ==
                            s.total_comm_bytes,
                        "per-format byte split does not sum to total",
                        label);
          }
          ok &= check(flat.stats.gateway_merges == 0 &&
                          flat.stats.gateway_dedup_items == 0,
                      "flat run performed gateway merges", label);
          // The headline gate: staging must reduce inter-node bytes,
          // on a baseline that actually crossed the slow link, with
          // the gateways actually deduping.
          ok &= check(flat.stats.inter_node_bytes > 0,
                      "gate is vacuous: flat run shipped no inter-node "
                      "bytes",
                      label);
          ok &= check(two.stats.gateway_merges > 0,
                      "gate is vacuous: no gateway merges engaged", label);
          // Strict reduction wherever it is structurally guaranteed:
          // the re-encode wins in every kAuto cell; BFS/PR selective
          // pushes overlap across a node's senders, so their dedup
          // shrinks even the raw merged payload. DOBFS broadcast
          // chunks are owner-disjoint — its raw merge may only tie.
          const bool dedups = primitive != "dobfs";
          if (dedups) {
            ok &= check(two.stats.gateway_dedup_items > 0,
                        "gateway dedup never removed an item", label);
          }
          if (dedups || wf == core::WireFormat::kAuto) {
            ok &= check(
                two.stats.inter_node_bytes < flat.stats.inter_node_bytes,
                "two-level did not reduce inter-node bytes", label);
          } else {
            ok &= check(
                two.stats.inter_node_bytes <= flat.stats.inter_node_bytes,
                "two-level grew inter-node bytes", label);
          }
          shape_flat_inter += flat.stats.inter_node_bytes;
          shape_two_inter += two.stats.inter_node_bytes;
          shape_dedup += two.stats.gateway_dedup_items;
          if (wf == core::WireFormat::kAuto) {
            shape_bitmap += two.stats.wire_bytes_bitmap;
            shape_delta += two.stats.wire_bytes_delta;
          }
          const double saved =
              flat.stats.inter_node_bytes == 0
                  ? 0.0
                  : 1.0 - static_cast<double>(two.stats.inter_node_bytes) /
                              static_cast<double>(
                                  flat.stats.inter_node_bytes);
          gate_table.add_row(
              {std::string(shape.name), primitive,
               std::string(to_string(mode)), std::string(to_string(wf)),
               static_cast<long long>(flat.stats.inter_node_bytes),
               static_cast<long long>(two.stats.inter_node_bytes),
               saved * 100,
               static_cast<long long>(two.stats.gateway_dedup_items)});
          gate_earned = true;
          cells.push_back(std::move(flat));
          cells.push_back(std::move(two));
        }
      }
      // Bit-identity across all 8 cells of this (topology, primitive):
      // answers and item-shaped counters must not depend on schedule,
      // wire format, or staging.
      baseline = &cells.front();
      for (std::size_t i = 1; i < cells.size(); ++i) {
        const std::string label = std::string(shape.name) + "/" +
                                  primitive + "/cell" + std::to_string(i);
        ok &= check(cells[i].labels == baseline->labels &&
                        cells[i].preds == baseline->preds &&
                        cells[i].rank == baseline->rank,
                    "results differ across the cell matrix", label);
        ok &= check(same_items(cells[i], *baseline),
                    "item-shaped counters differ across the cell matrix",
                    label);
      }
    }
    // Per-topology non-vacuity: across the whole matrix the staged
    // path must win outright, the gateways must have deduped, and the
    // kAuto cells must have exercised both compressed codecs.
    ok &= check(shape_two_inter < shape_flat_inter,
                "two-level did not reduce total inter-node bytes",
                shape.name);
    ok &= check(shape_dedup > 0, "gateway dedup never engaged", shape.name);
    ok &= check(shape_bitmap > 0,
                "gate is vacuous: bitmap codec never engaged", shape.name);
    ok &= check(shape_delta > 0,
                "gate is vacuous: varint codec never engaged", shape.name);
  }
  ok &= check(gate_earned, "gate never measured (degenerate workload?)",
              "gate");
  bench::emit(gate_table, options);

  // --- Part 2: the classic scale-up vs scale-out table. ---
  util::Table table("Extension: scale-up vs scale-out, modeled ms "
                    "(rmat_n22_128)");
  table.set_columns({"primitive", "1 node x 4", "1 node x 8",
                     "2 nodes x 4", "4 nodes x 2", "scale-out penalty"},
                    2);
  const auto modeled_ms = [&](vgpu::Machine& machine,
                              const std::string& primitive) {
    auto cfg = bench::config_for_primitive(primitive,
                                           machine.num_devices(), seed);
    return run_on(machine, primitive, g, scale, cfg)
               .stats.modeled_total_s() *
           1e3;
  };
  for (const std::string primitive : {"bfs", "dobfs", "pr"}) {
    auto m4 = vgpu::Machine::create("k40", 4);
    auto m8 = vgpu::Machine::create("k40", 8);
    auto c2x4 = vgpu::Machine::create_cluster("k40", 4, 2);
    auto c4x2 = vgpu::Machine::create_cluster("k40", 2, 4);
    const double up4 = modeled_ms(m4, primitive);
    const double up8 = modeled_ms(m8, primitive);
    const double out2x4 = modeled_ms(c2x4, primitive);
    const double out4x2 = modeled_ms(c4x2, primitive);
    table.add_row({primitive, up4, up8, out2x4, out4x2, out2x4 / up8});
    std::printf("  %s done\n", primitive.c_str());
  }
  std::printf("expected: 8 GPUs in one node beat 2x4 and 4x2 clusters; "
              "the penalty is largest for communication-bound DOBFS\n");
  bench::emit(table, options);

  std::printf("acceptance (bit-identical results/items across "
              "{flat,two-level}x{bsp,pipeline}x{raw,auto}, byte-split "
              "invariants, inter-node byte reduction with dedup and "
              "both codecs engaged): %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
