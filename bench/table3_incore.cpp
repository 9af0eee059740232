// Table III: comparison with previous in-core GPU BFS systems.
//
// Each row reproduces one line of the paper's table: the reference
// system's published GTEPS (constant, from the paper) next to our
// framework's modeled GTEPS on the analog dataset with the same GPU
// count, and the resulting speedup ratio. Two in-repo baselines that
// represent the competing *approaches* are also run: the hardwired
// peer-access BFS (Merrill/Enterprise style) and the 2D-partitioned
// BFS (Fu/Bisson style).
//
// Flags: --csv=PATH.
#include <cmath>

#include "baselines/bfs_2d.hpp"
#include "baselines/hardwired_bfs.hpp"
#include "bench_support.hpp"

namespace {

struct Row {
  const char* graph;
  const char* ref_system;
  double ref_gteps;   // published number
  int our_gpus;       // GPUs the paper used on our side
  const char* algo;   // dobfs or bfs
  double paper_ours;  // the paper's own measured GTEPS (for reference)
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mgg;
  const auto options = bench::parse_common(argc, argv);
  const auto seed = bench::flag<std::uint64_t>(options, "seed", 1, 0);

  // Rows of the paper's Table III (reference hardware/perf as published).
  const std::vector<Row> rows = {
      {"kron_n24_32", "Enterprise (Liu) 2xK40", 15.0, 2, "dobfs", 77.7},
      {"kron_n24_32", "Enterprise (Liu) 4xK40", 18.0, 4, "dobfs", 67.7},
      {"rmat_2Mv_128Me", "B40C (Merrill) 4xK40", 11.2, 4, "dobfs", 29.9},
      {"coPapersCiteseer", "Medusa (Zhong) 4xC2050", 2.69, 4, "bfs", 3.31},
      {"com-orkut", "Bisson 4xK20X", 2.67, 4, "dobfs", 14.22},
      {"com-Friendster", "Bisson 64xK20X", 15.68, 4, "dobfs", 14.1},
      {"kron_n23_16", "Bernaschi 4xK20X", 1.3, 4, "dobfs", 30.8},
      {"kron_n25_16", "Bernaschi 16xK20X", 3.2, 6, "dobfs", 31.0},
      {"kron_n25_32", "Fu 64xK20", 22.7, 4, "dobfs", 32.0},
      {"kron_n23_32", "Fu 4xK20", 6.3, 4, "dobfs", 27.9},
  };

  util::Table table("Table III: vs previous in-core GPU BFS systems");
  table.set_columns({"graph", "reference system", "ref GTEPS",
                     "our GTEPS (modeled)", "speedup", "paper speedup",
                     "hardwired GTEPS", "2D GTEPS"},
                    2);

  for (const auto& row : rows) {
    const auto ds = graph::build_dataset(row.graph, seed);
    const double scale = bench::dataset_scale(ds);
    auto cfg = bench::config_for_primitive(row.algo, row.our_gpus, seed);
    const auto ours =
        bench::run_primitive(row.algo, ds.graph, "k40", cfg, scale);

    // Approach baselines on the same machine shape.
    auto machine = vgpu::Machine::create("k40", row.our_gpus);
    machine.set_workload_scale(scale);
    const double full_edges =
        static_cast<double>(ds.graph.num_edges) * scale;
    const auto hw = baselines::hardwired_bfs(
        ds.graph, bench::pick_source(ds.graph), machine, row.our_gpus);
    const int grid_rows = row.our_gpus >= 4 ? 2 : 1;
    const int grid_cols = row.our_gpus / grid_rows;
    auto machine2 = vgpu::Machine::create("k40", row.our_gpus);
    machine2.set_workload_scale(scale);
    const auto b2d =
        baselines::bfs_2d(ds.graph, bench::pick_source(ds.graph), machine2,
                          grid_rows, grid_cols);

    table.add_row({row.graph, row.ref_system, row.ref_gteps, ours.gteps,
                   ours.gteps / row.ref_gteps,
                   row.paper_ours / row.ref_gteps,
                   hw.stats.gteps(full_edges), b2d.stats.gteps(full_edges)});
  }
  std::printf("speedup = our modeled GTEPS / published reference GTEPS; "
              "'paper speedup' uses the paper's own measured GTEPS.\n");
  bench::emit(table, options);
  return 0;
}
