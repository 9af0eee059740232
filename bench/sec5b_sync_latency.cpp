// §V-B: per-iteration synchronization overhead l, and what the
// event-driven pipeline schedule buys back.
//
// The paper measures l by letting each GPU visit only 1 vertex and 1
// edge per iteration (a chain graph) — the smallest per-iteration
// workload possible — and reports average per-iteration times of
// {66.8, 124, 142, 188} us for 1-4 GPUs, with runtime linear in S.
//
// This bench sweeps both superstep schedules (Config::sync_mode):
//   bsp_barrier     two barriers per superstep, serial comm charge
//   event_pipeline  per-peer event handshakes, one barrier, overlap
// over (a) the paper's chain microbenchmark and (b) a comm-heavy
// randomly-partitioned RMAT PageRank, and writes BENCH_sync.json.
//
// Acceptance (exit code 1 on failure, printed at the end): on the
// comm-heavy config the pipeline must model strictly less
// sync+exposed-comm time than the barrier schedule, non-vacuously
// (the barrier run actually communicates, the pipeline actually hides
// a positive fraction of it), with W and H counters bit-identical.
//
// Flags: --chain=N vertices (default 4096), --max-gpus=N,
// --rmat-scale=N (default 10), --json=PATH, --csv=PATH.
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "graph/generators.hpp"
#include "util/json.hpp"

namespace {

struct ModeRow {
  int gpus = 0;
  mgg::vgpu::RunStats stats;
};

void json_mode_entry(mgg::util::JsonWriter& w, const std::string& mode,
                     const ModeRow& row) {
  const auto& s = row.stats;
  w.begin_object();
  w.key("mode").value(mode);
  w.key("gpus").value(static_cast<long long>(row.gpus));
  w.key("iterations").value(static_cast<unsigned long long>(s.iterations));
  w.key("modeled_compute_s").value(s.modeled_compute_s);
  w.key("modeled_comm_s").value(s.modeled_comm_s);
  w.key("modeled_overhead_s").value(s.modeled_overhead_s);
  w.key("modeled_overlap_hidden_s").value(s.modeled_overlap_hidden_s);
  w.key("modeled_total_s").value(s.modeled_total_s());
  w.key("overhead_share").value(
      s.modeled_total_s() > 0 ? s.modeled_overhead_s / s.modeled_total_s()
                              : 0.0);
  w.key("comm_hidden_frac").value(
      s.modeled_comm_s > 0 ? s.modeled_overlap_hidden_s / s.modeled_comm_s
                           : 0.0);
  w.end_object();
}

bool counters_match(const mgg::vgpu::RunStats& a,
                    const mgg::vgpu::RunStats& b) {
  return a.iterations == b.iterations && a.total_edges == b.total_edges &&
         a.total_vertices == b.total_vertices &&
         a.total_launches == b.total_launches &&
         a.total_comm_items == b.total_comm_items &&
         a.total_comm_bytes == b.total_comm_bytes &&
         a.total_combine_items == b.total_combine_items;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options = bench::parse_common(argc, argv, {"chain", "json", "max-gpus", "rmat-scale"});
  const auto chain_n = bench::flag<VertexT>(options, "chain", 4096, 2);
  const int max_gpus = bench::flag(options, "max-gpus", 6, 1, bench::kMaxGpus);
  const int rmat_scale = bench::flag(options, "rmat-scale", 10, 1, 30);
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);
  const std::string json_path =
      options.get_string("json", "BENCH_sync.json");

  const auto chain = graph::build_undirected(graph::make_chain(chain_n));

  util::Table table("Sec. V-B: per-iteration overhead, BFS on a " +
                    std::to_string(chain_n) +
                    "-vertex chain, barrier vs pipeline");
  table.set_columns({"GPUs", "mode", "iterations", "total ms (modeled)",
                     "us per iteration", "paper us/iter"},
                    2);
  const std::vector<double> paper = {66.8, 124, 142, 188};

  std::vector<ModeRow> chain_rows[2];
  for (int gpus = 1; gpus <= max_gpus; ++gpus) {
    for (const auto mode :
         {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
      // Chunk partitioning keeps the chain contiguous so every
      // iteration really does visit exactly one vertex and one edge
      // per GPU.
      auto cfg = bench::config_for_primitive("bfs", gpus, seed);
      cfg.partitioner = "chunk";
      cfg.sync_mode = mode;
      const auto outcome = bench::run_primitive("bfs", chain, "k40", cfg, 1.0);
      const double us_per_iter =
          outcome.stats.modeled_total_s() * 1e6 /
          static_cast<double>(outcome.stats.iterations);
      table.add_row({static_cast<long long>(gpus), core::to_string(mode),
                     static_cast<long long>(outcome.stats.iterations),
                     outcome.modeled_ms, us_per_iter,
                     gpus <= 4 ? paper[gpus - 1] : 0.0});
      chain_rows[mode == core::SyncMode::kEventPipeline ? 1 : 0].push_back(
          {gpus, outcome.stats});
    }
  }
  std::printf("expected: runtime linear in S; a jump from 1 to 2 GPUs "
              "(inter-GPU sync appears), then gradual growth; the pipeline "
              "rows pay one barrier instead of two\n");
  bench::emit(table, options);

  // Comm-heavy acceptance config: randomly-partitioned RMAT PageRank
  // pushes every nonzero border accumulator to its host each
  // iteration — sustained all-to-all traffic for the overlap model to
  // hide under compute.
  const auto rmat = graph::build_undirected(graph::make_rmat(
      rmat_scale, 16, graph::RmatParams::gtgraph(), seed));
  const int heavy_gpus = std::min(4, max_gpus);
  ModeRow heavy[2];
  for (const auto mode :
       {core::SyncMode::kBspBarrier, core::SyncMode::kEventPipeline}) {
    auto cfg = bench::config_for_primitive("pr", heavy_gpus, seed);
    cfg.partitioner = "random";
    cfg.sync_mode = mode;
    const auto outcome = bench::run_primitive("pr", rmat, "k40", cfg, 1.0);
    heavy[mode == core::SyncMode::kEventPipeline ? 1 : 0] = {heavy_gpus,
                                                             outcome.stats};
  }
  const auto& bsp = heavy[0].stats;
  const auto& pipe = heavy[1].stats;

  // Sync + exposed-comm seconds per schedule: what each schedule adds
  // on top of the (identical) compute work.
  const double bsp_exposed = bsp.modeled_overhead_s + bsp.modeled_comm_s;
  const double pipe_exposed = pipe.modeled_overhead_s + pipe.modeled_comm_s -
                              pipe.modeled_overlap_hidden_s;
  const double hidden_frac =
      pipe.modeled_comm_s > 0
          ? pipe.modeled_overlap_hidden_s / pipe.modeled_comm_s
          : 0.0;
  const bool non_vacuous = bsp.modeled_comm_s > 0 && bsp.iterations > 1;
  const bool counters_ok = counters_match(bsp, pipe);
  const bool hides = pipe.modeled_overlap_hidden_s > 0 && hidden_frac > 0;
  const bool faster = pipe_exposed < bsp_exposed;
  const bool ok = non_vacuous && counters_ok && hides && faster;

  std::printf(
      "\ncomm-heavy acceptance (PR, rmat scale %d, random partition, %d "
      "GPUs):\n"
      "  bsp   overhead+comm = %.3f ms\n"
      "  pipe  overhead+comm-hidden = %.3f ms (hidden %.3f ms, %.1f%% of "
      "comm)\n"
      "  counters bit-identical: %s | non-vacuous: %s | hides>0: %s | "
      "strictly less: %s\n"
      "  => %s\n",
      rmat_scale, heavy_gpus, bsp_exposed * 1e3, pipe_exposed * 1e3,
      pipe.modeled_overlap_hidden_s * 1e3, hidden_frac * 100,
      counters_ok ? "yes" : "NO", non_vacuous ? "yes" : "NO",
      hides ? "yes" : "NO", faster ? "yes" : "NO", ok ? "PASS" : "FAIL");

  util::JsonWriter w;
  w.begin_object();
  w.key("chain").begin_object();
  w.key("vertices").value(static_cast<unsigned long long>(chain_n));
  w.key("runs").begin_array();
  for (int m = 0; m < 2; ++m) {
    for (const ModeRow& row : chain_rows[m]) {
      json_mode_entry(w, m == 0 ? "bsp_barrier" : "event_pipeline", row);
    }
  }
  w.end_array();
  w.end_object();
  w.key("comm_heavy").begin_object();
  w.key("primitive").value("pr");
  w.key("rmat_scale").value(static_cast<long long>(rmat_scale));
  w.key("partitioner").value("random");
  w.key("runs").begin_array();
  json_mode_entry(w, "bsp_barrier", heavy[0]);
  json_mode_entry(w, "event_pipeline", heavy[1]);
  w.end_array();
  w.end_object();
  w.key("acceptance").begin_object();
  w.key("counters_identical").value(counters_ok);
  w.key("non_vacuous").value(non_vacuous);
  w.key("hidden_positive").value(hides);
  w.key("pipeline_strictly_less").value(faster);
  w.key("pass").value(ok);
  w.end_object();
  w.end_object();
  w.save(json_path);
  std::printf("wrote %s\n", json_path.c_str());

  return ok ? 0 : 1;
}
