// Table V: large graphs on 4 GPUs, and the cost of 64-bit vertex/edge
// IDs.
//
// Paper reference values: friendster BFS 339 ms, friendster PR 1024
// ms/iter, sk-2005 BFS 2717 ms, sk-2005 PR 154 ms/iter; and on
// rmat_n24_32, BFS at {32-bit eID, 64-bit eID, 64-bit vID} = {67.6,
// 52.6, 33.9} GTEPS — 64-bit vertex IDs double the bandwidth demand
// per edge and halve the throughput ("reads 2x data per edge as
// 32-bit, and records 0.5x performance").
//
// Flags: --gpus=N (default 4), --csv=PATH.
#include "bench_support.hpp"
#include "primitives/dobfs.hpp"

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options = bench::parse_common(argc, argv, {"gpus"});
  const int gpus = bench::flag(options, "gpus", 4, 1, bench::kMaxGpus);
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);

  // --- Part 1: large graphs (modeled full size via the scale knob). ---
  {
    util::Table table("Table V (part 1): large graphs on " +
                      std::to_string(gpus) + " GPUs");
    table.set_columns(
        {"graph", "algo", "ours ms (modeled)", "paper ms"}, 1);
    struct Row {
      const char* graph;
      const char* algo;
      double paper_ms;
    };
    const std::vector<Row> rows = {
        {"friendster", "bfs", 339},
        {"friendster", "pr", 1024 * 20},  // paper reports ms/iter; x20
        {"sk-2005", "bfs", 2717},
        {"sk-2005", "pr", 154 * 20},
    };
    for (const auto& row : rows) {
      const auto ds = graph::build_dataset(row.graph, seed);
      const double scale = bench::dataset_scale(ds);
      auto cfg = bench::config_for_primitive(row.algo, gpus, seed);
      const auto ours =
          bench::run_primitive(row.algo, ds.graph, "k40", cfg, scale);
      table.add_row({row.graph, row.algo, ours.modeled_ms, row.paper_ms});
    }
    bench::emit(table, options);
  }

  // --- Part 2: ID-width sweep on rmat_n24_32 (BFS). ---
  {
    util::Table table("Table V (part 2): 32- vs 64-bit IDs, BFS on "
                      "rmat_n24_32");
    table.set_columns({"vertex ID", "edge ID", "ours GTEPS (modeled)",
                       "paper GTEPS", "vs 32/32"},
                      2);
    struct IdRow {
      int v_bytes;
      int e_bytes;
      double paper_gteps;
    };
    const std::vector<IdRow> rows = {
        {4, 4, 67.6}, {4, 8, 52.6}, {8, 8, 33.9}};
    const auto ds = graph::build_dataset("rmat_n24_32", seed);
    const double scale = bench::dataset_scale(ds);
    double base_gteps = 0;
    for (const auto& row : rows) {
      // The paper's headline BFS GTEPS on rmat are direction-optimized.
      auto cfg = bench::config_for_primitive("dobfs", gpus, seed);
      auto machine = vgpu::Machine::create("k40", gpus);
      machine.set_workload_scale(scale);
      machine.set_id_widths({row.v_bytes, row.e_bytes});
      prim::DobfsProblem problem;
      problem.init(ds.graph, machine, cfg);
      prim::DobfsEnactor enactor(problem);
      enactor.reset(bench::pick_source(ds.graph));
      const auto stats = enactor.enact();
      const double gteps =
          stats.gteps(static_cast<double>(ds.graph.num_edges) * scale);
      if (base_gteps == 0) base_gteps = gteps;
      table.add_row({std::to_string(row.v_bytes * 8) + "-bit",
                     std::to_string(row.e_bytes * 8) + "-bit", gteps,
                     row.paper_gteps, gteps / base_gteps});
    }
    bench::emit(table, options);
  }
  return 0;
}
