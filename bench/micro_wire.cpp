// Microbenchmark + exit gate: compressed frontier pushes (bitmap /
// delta-varint wire formats) vs raw vertex IDs, on the rmat family the
// paper benchmarks with (§V-A comm volume).
//
// Protocol: one BFS per {raw, bitmap, varint, auto} x {bsp, pipeline}
// cell at 4 vGPUs, dense frontiers enabled so the run crosses the
// sparse fringe / dense middle boundary both ways. Every cell is
// checked bit-identical to the raw run of its sync mode: same labels,
// same predecessors, same iterations / edge work / communicated items
// / combine items. The formats are lossless and order-preserving, so
// ANY result or item-count drift is a bug, not noise.
//
// The exit gate asserts only deterministic modeled properties — no
// wall-clock thresholds (modeled bytes are seed-deterministic; host
// scheduling noise cannot move them):
//  * bit-identical results + item counts for every cell (above);
//  * per-format byte split sums to total_comm_bytes, encoded ==
//    decoded vertex counts;
//  * kAuto ships no more bytes than any single-format row of its sync
//    mode (it picks the smallest encoding per message);
//  * kAuto at 4 vGPUs (BSP) cuts total_comm_bytes by >= 30% vs raw;
//  * the gate is non-vacuous: that same run must exercise BOTH
//    compressed codecs (wire_bytes_bitmap > 0 AND wire_bytes_delta
//    > 0) — a config that silently falls back to raw everywhere
//    cannot pass on an empty measurement.
//
// Flags: --scale=N rmat scale (default 10), --edge-factor=N (default
//        16), --csv=PATH. (--wire-format from the common flag set is
//        ignored here: this binary's whole point is to sweep formats.)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "graph/generators.hpp"
#include "primitives/bfs.hpp"
#include "util/table.hpp"
#include "vgpu/machine.hpp"

namespace {

using namespace mgg;

constexpr int kGpus = 4;
constexpr double kMinReduction = 0.30;

struct Cell {
  prim::BfsResult result;
  vgpu::RunStats stats;
};

Cell run_cell(const graph::Graph& g, VertexT src, core::WireFormat f,
              core::SyncMode mode) {
  auto machine = vgpu::Machine::create("k40", kGpus);
  core::Config cfg;
  cfg.num_gpus = kGpus;
  // No predecessor marking: associates ride the wire uncompressed (the
  // codecs cover vertex IDs), so a 4-byte pred per 4-byte ID would cap
  // the best possible reduction near the 30% gate and turn it into a
  // knife-edge. tests/wire_format_test.cpp pins the with-predecessors
  // differential; this gate measures ID compression.
  cfg.mark_predecessors = false;
  cfg.dense_threshold = 0.05;  // engage dense (ascending) frontiers
  cfg.wire_format = f;
  cfg.sync_mode = mode;
  Cell cell{prim::run_bfs(g, src, machine, cfg), {}};
  cell.stats = cell.result.stats;
  return cell;
}

bool check(bool ok, const char* what, const std::string& label) {
  if (!ok) std::fprintf(stderr, "FAIL [%s]: %s\n", label.c_str(), what);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options = bench::parse_common(argc, argv, {"scale", "edge-factor"});
  const int scale = static_cast<int>(options.get_int("scale", 10));
  const double edge_factor = options.get_double("edge-factor", 16);

  const auto g =
      graph::build_undirected(graph::make_rmat(scale, edge_factor));
  const VertexT src = bench::pick_source(g);
  std::printf("rmat scale %d ef %.0f: %u vertices, %u edges, %d vGPUs\n",
              scale, edge_factor, g.num_vertices, g.num_edges, kGpus);

  util::Table table("micro: wire-format comm volume, BFS on rmat (" +
                    std::to_string(kGpus) + " vGPUs, modeled bytes)");
  table.set_columns({"mode", "format", "comm items", "bytes", "raw B",
                     "bitmap B", "varint B", "saved %"},
                    1);

  bool ok = true;
  // The gate must be earned on a real measurement: a run whose raw
  // baseline ships zero bytes (e.g. a degenerate --scale) passes
  // nothing.
  bool gate_earned = false;
  for (const core::SyncMode mode :
       {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
    const Cell base = run_cell(g, src, core::WireFormat::kRawIds, mode);
    // Smallest byte total of the single-format rows (raw, bitmap and
    // varint run before auto).
    std::uint64_t single_format_min = base.stats.total_comm_bytes;
    for (const core::WireFormat f :
         {core::WireFormat::kRawIds, core::WireFormat::kBitmap,
          core::WireFormat::kDeltaVarint, core::WireFormat::kAuto}) {
      const Cell cell = f == core::WireFormat::kRawIds
                            ? base
                            : run_cell(g, src, f, mode);
      const auto& s = cell.stats;
      const std::string label =
          std::string(to_string(mode)) + "/" + to_string(f);
      // Bit-identical results and item-shaped counters vs raw.
      ok &= check(cell.result.labels == base.result.labels,
                  "BFS labels differ from raw", label);
      ok &= check(cell.result.preds == base.result.preds,
                  "BFS predecessors differ from raw", label);
      ok &= check(s.iterations == base.stats.iterations,
                  "iteration count differs from raw", label);
      ok &= check(s.total_edges == base.stats.total_edges,
                  "edge work differs from raw", label);
      ok &= check(s.total_comm_items == base.stats.total_comm_items,
                  "communicated items differ from raw", label);
      ok &= check(s.total_combine_items == base.stats.total_combine_items,
                  "combined items differ from raw", label);
      // Accounting invariants.
      ok &= check(s.wire_bytes_raw + s.wire_bytes_bitmap +
                          s.wire_bytes_delta ==
                      s.total_comm_bytes,
                  "per-format byte split does not sum to total", label);
      ok &= check(s.wire_encode_vertices == s.wire_decode_vertices,
                  "encoded != decoded vertex count", label);
      ok &= check(s.total_comm_bytes <= base.stats.total_comm_bytes,
                  "compressed run shipped more bytes than raw", label);
      if (f == core::WireFormat::kAuto) {
        ok &= check(s.total_comm_bytes <= single_format_min,
                    "kAuto shipped more bytes than a single format", label);
      } else {
        single_format_min = std::min(single_format_min, s.total_comm_bytes);
      }
      const double vs_raw =
          base.stats.total_comm_bytes == 0
              ? 0.0
              : 1.0 - static_cast<double>(s.total_comm_bytes) /
                          static_cast<double>(base.stats.total_comm_bytes);
      table.add_row({std::string(to_string(mode)),
                     std::string(to_string(f)),
                     static_cast<long long>(s.total_comm_items),
                     static_cast<long long>(s.total_comm_bytes),
                     static_cast<long long>(s.wire_bytes_raw),
                     static_cast<long long>(s.wire_bytes_bitmap),
                     static_cast<long long>(s.wire_bytes_delta),
                     f == core::WireFormat::kRawIds
                         ? util::Cell(std::string("-"))
                         : util::Cell(vs_raw * 100)});
      // The headline gate: kAuto on the BSP schedule.
      if (f == core::WireFormat::kAuto &&
          mode == core::SyncMode::kBspBarrier &&
          base.stats.total_comm_bytes > 0) {
        gate_earned = true;
        ok &= check(vs_raw >= kMinReduction,
                    "kAuto byte reduction below the 30% gate", label);
        ok &= check(s.wire_bytes_bitmap > 0,
                    "gate is vacuous: bitmap codec never engaged", label);
        ok &= check(s.wire_bytes_delta > 0,
                    "gate is vacuous: varint codec never engaged", label);
      }
    }
  }
  ok &= check(gate_earned, "gate never measured (degenerate workload?)",
              "gate");
  bench::emit(table, options);
  std::printf("acceptance at %d vGPUs (bit-identical results, byte "
              "accounting, >= %.0f%% kAuto reduction, both codecs "
              "exercised): %s\n",
              kGpus, kMinReduction * 100, ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
